"""octocache: trace-driven simulation of cooperative hierarchical caching
in cloud radio access networks.

Edge caches at the base stations and a cloud cache at the central
processing unit jointly serve user requests; anything not cached in the
RAN is fetched from the CDN origin over the backhaul. The package provides
the delay-reduction objective, a greedy placement with a 1/2 approximation
guarantee plus reactive replacement, six baseline policies, a brute-force
optimality oracle, Zipf and trace workloads, and a replay engine with hit
ratio, delay, and backhaul metrics.

The names below are the ones README's "Library use" section documents;
everything else is reached through its submodule.
"""

__version__ = "0.1.0"

from .engine import (ExperimentConfig, Metrics, SweepRow, derive_seed, prepare,
                     replay, run_experiment, run_sweep, rows_to_csv)
from .errors import (ConfigError, EmptyTraceError, InfeasibleInstanceError,
                     OracleSizeError, TraceError, TraceFormatError)
from .placement import brute_force_optimal, pcd, rcr
from .policies import (POLICY_NAMES, LfuPolicy, LruPolicy, OctopusPolicy,
                       make_policy)
from .routing import (Placement, RoutingMode, SourceKind, marginal_gain,
                      marginal_loss, route_request, total_expected_delay,
                      utility)
from .topology import (CacheCapacities, Catalog, Popularity, Topology,
                       build_paper_topology, capacities_from_budget)
from .workload import (RequestEvent, assign_users, estimate_popularity,
                       generate_requests, parse_trace_file, zipf_popularity)

__all__ = [
    "CacheCapacities", "Catalog", "ConfigError", "EmptyTraceError",
    "ExperimentConfig", "InfeasibleInstanceError", "LfuPolicy", "LruPolicy",
    "Metrics", "OctopusPolicy", "OracleSizeError", "POLICY_NAMES",
    "Placement", "Popularity", "RequestEvent", "RoutingMode", "SourceKind",
    "SweepRow", "Topology", "TraceError", "TraceFormatError", "assign_users",
    "brute_force_optimal", "build_paper_topology", "capacities_from_budget",
    "derive_seed", "estimate_popularity", "generate_requests", "make_policy",
    "marginal_gain", "marginal_loss", "parse_trace_file", "pcd", "prepare",
    "rcr", "replay", "route_request", "rows_to_csv", "run_experiment",
    "run_sweep", "total_expected_delay", "utility", "zipf_popularity",
]
