"""octocache: trace-driven simulation of cooperative hierarchical caching
in cloud radio access networks.

Edge caches at the base stations and a cloud cache at the central
processing unit jointly serve user requests; anything not cached in the
RAN is fetched from the CDN origin over the backhaul. The package provides
the delay-reduction objective, a greedy placement with a 1/2 approximation
guarantee plus reactive replacement, six baseline policies, a brute-force
optimality oracle, Zipf and trace workloads, and a replay engine with hit
ratio, delay, and backhaul metrics.
"""

__version__ = "0.1.0"

from .engine import (CSV_COLUMNS, ExperimentConfig, Metrics, SweepRow,
                     derive_seed, run_experiment, run_sweep, rows_to_csv,
                     rows_to_json)
from .errors import (ConfigError, EmptyTraceError, InfeasibleInstanceError,
                     OracleSizeError, TraceError, TraceFormatError)
from .placement import (PlacementAlgorithmReport, brute_force_optimal, pcd,
                        place_ecnc, place_eo, place_exmpc, place_femtox, rcr,
                        top_popular)
from .policies import (POLICY_NAMES, LfuPolicy, LruPolicy, OctopusPolicy,
                       Policy, StaticPlacementPolicy, make_policy)
from .routing import (Placement, RoutingMode, Source, SourceKind,
                      UtilityEvaluator, marginal_gain,
                      marginal_loss, route_request, total_expected_delay,
                      user_expected_delay, utility)
from .topology import (CacheCapacities, Catalog, Popularity, Topology,
                       build_paper_topology, capacities_from_budget,
                       topology_from_config, topology_to_config,
                       uturn_peer_delays)
from .workload import (RequestEvent, RequestTrace, assign_users,
                       estimate_popularity, generate_requests, parse_trace,
                       parse_trace_file, serialize_trace, zipf_popularity)

__all__ = [
    "CSV_COLUMNS", "CacheCapacities", "Catalog", "ConfigError",
    "EmptyTraceError", "ExperimentConfig", "InfeasibleInstanceError",
    "LfuPolicy", "LruPolicy", "Metrics", "OctopusPolicy", "OracleSizeError",
    "POLICY_NAMES", "Placement", "PlacementAlgorithmReport", "Policy",
    "Popularity", "RequestEvent", "RequestTrace", "RoutingMode", "Source",
    "SourceKind", "StaticPlacementPolicy", "SweepRow", "Topology",
    "TraceError", "TraceFormatError", "UtilityEvaluator", "assign_users",
    "brute_force_optimal", "build_paper_topology", "capacities_from_budget",
    "derive_seed", "estimate_popularity", "generate_requests",
    "make_policy", "marginal_gain", "marginal_loss", "parse_trace",
    "parse_trace_file", "pcd", "place_ecnc", "place_eo", "place_exmpc",
    "place_femtox", "rcr", "route_request", "rows_to_csv", "rows_to_json",
    "run_experiment", "run_sweep", "serialize_trace", "top_popular",
    "topology_from_config", "topology_to_config", "total_expected_delay",
    "user_expected_delay", "utility", "uturn_peer_delays", "zipf_popularity",
]
