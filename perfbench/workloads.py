"""Benchmark workloads: their configs, the seeded trace CSV, and the
instance set-up built from octocache's public calls.

Every workload replays on one fixed modelled network: the paper topology
and the users' home base stations, both drawn as ``run_experiment`` draws
them at master seed 101 (homes are dealt to the users in the order they
first appear in the run's own request stream). The ``--seed`` argument
varies the requests, not the network, because the network moves the results
more than any later change will:

* sampled fronthaul and CDN delays move the simulated delay by ~20 % from
  seed to seed;
* the number of users per base station decides which octopus regime a
  miss-heavy run lands in: at seed 101, 25,743 misses commit 12 swaps; with
  the homes of master seed 705, 26,371 misses commit 17,578 swaps and the
  cell takes 1.5x as long. The benchmark measures the first regime only.

At seed 101 every cell equals ``run_experiment`` with the plain config.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from octocache import (Catalog, ExperimentConfig, assign_users,
                       build_paper_topology, capacities_from_budget,
                       derive_seed, estimate_popularity, generate_requests,
                       parse_trace_file, zipf_popularity)

#: Master seed whose topology and user homes every workload replays on.
NETWORK_SEED = 101
NUM_BS = 7
TB = 10**12

# Shape of the generated CSV trace.
TRACE_REQUESTS = 300_000
TRACE_MALFORMED = 1_500          # 0.5 % of the 301,500 data lines
TRACE_CONTENTS = 20_000
TRACE_USERS = 5_000
TRACE_ALPHA = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple
    total_cache_bytes: int
    lead_policy: str             # policy behind avg_delay_ms and hit_ratio
    uses_trace_file: bool = False
    min_rounds: int = 1          # untraced rounds a run makes at least


WORKLOADS = {
    # The acceptance config: every file fits, octopus never misses, time goes
    # to greedy placement and per-request replay.
    "pinned": Workload("pinned", ("octopus", "eo", "ecnc", "exmpc", "femtox",
                                  "lfu", "lru"),
                       int(0.4 * TB), "octopus"),
    # Same config at 0.05 TB: a third of octopus requests miss and each runs
    # reactive replacement, which dominates the wall time.
    "miss-heavy": Workload("miss-heavy", ("octopus", "lfu", "lru"),
                           int(0.05 * TB), "octopus"),
    # A parsed CSV trace with string ids, out-of-order timestamps and bad
    # lines: parse/intern/sort instead of generate, larger catalog and user
    # population, static placements with routing only. Its allocation-heavy
    # cells track the host-speed kernel least well, so a run takes the
    # median of three rounds.
    "trace": Workload("trace", ("eo", "ecnc", "exmpc", "femtox"),
                      int(0.2 * TB), "femtox", uses_trace_file=True,
                      min_rounds=3),
}


def fixed_topology():
    """The modelled topology shared by every workload and seed."""
    return build_paper_topology(NUM_BS, derive_seed(NETWORK_SEED, "topology"))


def cell_configs(workload, seed, topology=None, assignment=None,
                 trace_path=None):
    """One ``ExperimentConfig`` per policy cell of the workload, on the given
    network (``set_up`` builds it)."""
    if workload.uses_trace_file:
        source = {"trace_path": str(trace_path)}
    else:
        source = {"zipf_alpha": 0.8, "num_files": 10_000,
                  "num_requests": 100_000, "num_users": 1_000}
    return [ExperimentConfig(policy=policy, num_bs=NUM_BS, file_size_mb=20.0,
                             total_cache_bytes=workload.total_cache_bytes,
                             warmup_frac=0.2, master_seed=seed,
                             topology=topology, user_assignment=assignment,
                             **source)
            for policy in workload.policies]


def write_trace_csv(path, seed):
    """Write the ``trace`` workload's CSV and return (events, malformed).

    Content ids are opaque strings drawn Zipf(0.9) from a shuffled catalog,
    so their interned order differs from their popularity rank. Timestamps
    carry jitter of a few event slots, so the parser has to sort them.
    Malformed lines (wrong arity, empty field, non-numeric timestamp) are
    spread uniformly between the good ones.
    """
    rng = np.random.default_rng(derive_seed(seed, "perfbench-trace"))
    labels = [f"obj-{k:05d}-{(k * 2654435761) % 2**32:08x}"
              for k in rng.permutation(TRACE_CONTENTS)]
    weights = np.arange(1, TRACE_CONTENTS + 1, dtype=float) ** -TRACE_ALPHA
    cdf = np.cumsum(weights / weights.sum())
    ranks = np.minimum(np.searchsorted(cdf, rng.random(TRACE_REQUESTS)),
                       TRACE_CONTENTS - 1)
    users = rng.integers(0, TRACE_USERS, size=TRACE_REQUESTS)
    times = np.arange(TRACE_REQUESTS) * 0.1 + rng.uniform(0.0, 0.5, TRACE_REQUESTS)
    lines = [f"{t:.3f},user-{u:04d},{labels[r]}"
             for t, u, r in zip(times.tolist(), users.tolist(), ranks.tolist())]
    total = TRACE_REQUESTS + TRACE_MALFORMED
    is_bad = np.zeros(total, dtype=bool)
    is_bad[rng.choice(total, size=TRACE_MALFORMED, replace=False)] = True
    out = []
    good = 0
    for bad in is_bad.tolist():
        if not bad:
            out.append(lines[good])
            good += 1
            continue
        t, user, content = lines[min(good, TRACE_REQUESTS - 1)].split(",")
        kind = (len(out) - good) % 3
        out.append((f"{t},{user}", f"{t},,{content}", f"t{t},{user},{content}")[kind])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("timestamp,user_id,content_id\n")
        handle.write("\n".join(out))
        handle.write("\n")
    return TRACE_REQUESTS, TRACE_MALFORMED


@dataclass
class Instance:
    """One replay-ready instance, as ``run_experiment`` builds it per cell."""

    trace: object
    catalog: object
    topology: object
    assignment: dict
    capacities: object
    popularity: object
    warm_count: int


class NullTracer:
    """Stands in for a tracer when timing untraced set-up."""

    cell = None

    def span(self, name, **attrs):
        return nullcontext()


def _requests(config, tracer):
    if config.trace_path is not None:
        with tracer.span("workload.parse"):
            return parse_trace_file(config.trace_path)
    with tracer.span("workload.generate"):
        zipf = zipf_popularity(config.num_files, config.zipf_alpha)
        return generate_requests(zipf, config.num_requests,
                                 list(range(1, config.num_users + 1)),
                                 config.seeds()["workload"])


def _instance(config, trace, topology, assignment, tracer):
    """The rest of ``run_experiment``'s set-up, once the network is known."""
    catalog = Catalog(num_files=trace.catalog_size,
                      file_size_mb=config.file_size_mb)
    if all(user in assignment for user in trace.users()):
        trace = trace.with_assignment(assignment)
    topology = topology.with_users(assignment)
    with tracer.span("workload.capacities"):
        capacities = capacities_from_budget(config.total_cache_bytes, topology,
                                            catalog, config.cloud_edge_ratio)
    warm_count = int(len(trace.events) * config.warmup_frac)
    with tracer.span("workload.popularity"):
        popularity = estimate_popularity(trace, warm_count,
                                         smoothing=config.smoothing)
    return Instance(trace, catalog, topology, assignment, capacities,
                    popularity, warm_count)


def build_instance(config, tracer=NullTracer()):
    """One cell's instance, built from public octocache calls in the order
    ``run_experiment`` makes them for a config that carries its network
    (``topology`` and ``user_assignment``), each inside a tracer span."""
    trace = _requests(config, tracer)
    return _instance(config, trace, config.topology, config.user_assignment,
                     tracer)


def set_up(config, tracer=NullTracer()):
    """The set-up a user pays for one instance: the network, then the
    workload over it; ``setup_s`` times this call. The network in
    ``config`` is ignored and built afresh. The returned instance's
    ``assignment`` is the one every cell of the run is given."""
    with tracer.span("topology.build"):
        topology = fixed_topology()
    trace = _requests(config, tracer)
    with tracer.span("workload.users"):
        users = trace.users()
    with tracer.span("workload.assign"):
        assignment = assign_users(users, NUM_BS,
                                  derive_seed(NETWORK_SEED, "assignment"))
    return _instance(config, trace, topology, assignment, tracer)
