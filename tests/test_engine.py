import hashlib
from dataclasses import replace

import numpy as np
import pytest

import octocache.engine
import octocache.policies
import octocache.workload
from octocache import (POLICY_NAMES, CacheCapacities, Catalog, ConfigError,
                       ExperimentConfig, Metrics, Popularity, Topology,
                       derive_seed, pcd, rows_to_csv, run_experiment, run_sweep,
                       total_expected_delay)
from octocache.routing import Source, SourceKind


def canonical_topology():
    return Topology(num_bs=2, edge_delay=(10.0, 20.0),
                    peer_delay=((0.0, 30.0), (30.0, 0.0)), cdn_delay=100.0)


def small_config(**overrides):
    base = dict(policy="octopus", num_bs=3, num_files=60,
                capacities=CacheCapacities(cloud=20, edge=(5, 5, 5)),
                zipf_alpha=0.8, num_requests=4000, num_users=60,
                master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- validation

def test_config_requires_one_workload_source():
    with pytest.raises(ConfigError):
        run_experiment(small_config(zipf_alpha=None))
    with pytest.raises(ConfigError):
        run_experiment(small_config(trace_path="x.csv"))  # both set


def test_config_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        run_experiment(small_config(policy="magic"))


def test_config_requires_capacities():
    with pytest.raises(ConfigError):
        run_experiment(small_config(capacities=None))


def test_config_rejects_popularity_of_other_length():
    # every policy, not only those whose placement reads the popularity
    for policy in POLICY_NAMES:
        with pytest.raises(ConfigError, match="popularity"):
            run_experiment(small_config(policy=policy,
                                        popularity=Popularity(np.array([0.5, 0.3, 0.2]))))


def test_config_rejects_capacities_for_other_bs_count():
    # two edge capacities for three base stations, for every policy
    for policy in POLICY_NAMES:
        with pytest.raises(ConfigError, match="capacities"):
            run_experiment(small_config(
                policy=policy, capacities=CacheCapacities(cloud=2, edge=(2, 2))))


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_whole_float_cloud_edge_ratio_runs_as_its_int(policy):
    # 1 GB of 20 MB files over 3 BSs at ratio 2: cloud 20, edges 10
    budget = dict(policy=policy, capacities=None, total_cache_bytes=10**9)
    assert (run_experiment(small_config(**budget, cloud_edge_ratio=2.0))
            == run_experiment(small_config(**budget, cloud_edge_ratio=2)))


def test_fractional_home_bs_is_rejected():
    with pytest.raises(ValueError, match="home BS 1.5"):
        run_experiment(small_config(num_users=2, user_assignment={1: 1.5, 2: 2}))


def test_empty_evaluation_window():
    with pytest.raises(ConfigError):
        run_experiment(small_config(num_requests=0))


def test_seed_derivation_stable_and_labeled():
    assert derive_seed(1, "topology") == derive_seed(1, "topology")
    assert derive_seed(1, "topology") != derive_seed(1, "workload")
    assert derive_seed(1, "topology") != derive_seed(2, "topology")


# ------------------------------------------------------------------- metrics

def test_metrics_identity_and_derived_values():
    m = Metrics(file_size_bytes=20_000_000)
    m.record(Source(SourceKind.LOCAL_EDGE, 1, 0.0))
    m.record(Source(SourceKind.CLOUD, 0, 15.0))
    m.record(Source(SourceKind.NEIGHBOR_EDGE, 2, 25.0))
    m.record(Source(SourceKind.CDN, None, 100.0))
    assert m.requests_total == 4
    assert m.cache_hits == 3
    assert m.hit_ratio == pytest.approx(0.75)
    assert m.avg_access_delay == pytest.approx(35.0)
    assert m.backhaul_bytes == 20_000_000
    assert m.requests_total == (m.local_hits + m.cloud_hits
                                + m.neighbor_hits + m.cdn_fetches)


def test_metrics_empty():
    m = Metrics()
    assert m.hit_ratio == 0.0 and m.avg_access_delay == 0.0


# -------------------------------------------------------------- experiments

def test_saturated_caches_full_routing():
    metrics = run_experiment(small_config(
        num_files=20, capacities=CacheCapacities(cloud=20, edge=(20, 20, 20))))
    assert metrics.hit_ratio == 1.0
    assert metrics.avg_access_delay == 0.0  # everything is a local hit
    assert metrics.backhaul_bytes == 0
    assert metrics.local_hits == metrics.requests_total


def test_zero_capacity_all_cdn():
    metrics = run_experiment(small_config(
        capacities=CacheCapacities(cloud=0, edge=(0, 0, 0)),
        num_requests=1000))
    assert metrics.hit_ratio == 0.0
    assert metrics.cdn_fetches == metrics.requests_total == 800
    assert metrics.backhaul_bytes == 800 * 20_000_000
    # all-CDN average delay equals the topology's CDN leg
    config = small_config(capacities=CacheCapacities(cloud=0, edge=(0, 0, 0)),
                          num_requests=1000)
    from octocache import build_paper_topology
    topo = build_paper_topology(3, config.seeds()["topology"])
    assert metrics.avg_access_delay == pytest.approx(topo.cdn_delay)


def test_requests_total_identity_and_determinism():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a.as_dict() == b.as_dict()
    assert a.requests_total == (a.local_hits + a.cloud_hits
                                + a.neighbor_hits + a.cdn_fetches)
    assert 0.0 <= a.avg_access_delay <= 100.0


def test_different_seed_changes_workload():
    a = run_experiment(small_config())
    b = run_experiment(small_config(master_seed=8))
    assert a.as_dict() != b.as_dict()


def test_replay_converges_to_analytic_delay_on_canonical():
    # static placement, exact popularity: the replayed average must match
    # the analytic per-user expectation (11 + 19) / 2
    topo = canonical_topology()
    pop = Popularity(np.array([0.5, 0.3, 0.2]))
    caps = CacheCapacities(cloud=1, edge=(1, 1))
    config = ExperimentConfig(policy="octopus", num_files=3, file_size_mb=20.0,
                              capacities=caps, zipf_alpha=0.9,  # ignored: popularity given
                              num_requests=100_000, num_users=2,
                              warmup_frac=0.0, master_seed=3,
                              topology=topo, popularity=pop,
                              user_assignment={1: 1, 2: 2},
                              rcr_enabled=False)
    metrics = run_experiment(config)
    placement = pcd(topo.with_users({1: 1, 2: 2}), Catalog(3), pop, caps).placement
    analytic = total_expected_delay(placement, topo.with_users({1: 1, 2: 2}), pop) / 2
    assert analytic == pytest.approx(15.0)
    assert metrics.avg_access_delay == pytest.approx(analytic, rel=0.02)
    assert metrics.hit_ratio == 1.0


def test_warmup_events_warm_lru_but_are_excluded_from_metrics(tmp_path):
    # two warm-up requests fill the cache; both evaluation requests hit
    lines = ["0,u,a", "1,u,b", "2,u,a", "3,u,b"]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    topo = Topology(num_bs=1, edge_delay=(10.0,), peer_delay=((0.0,),),
                    cdn_delay=100.0)
    config = ExperimentConfig(policy="lru", trace_path=str(path),
                              capacities=CacheCapacities(cloud=2, edge=(2,)),
                              warmup_frac=0.5, master_seed=0, topology=topo)
    metrics = run_experiment(config)
    assert metrics.requests_total == 2
    assert metrics.hit_ratio == 1.0


def test_octopus_placement_not_warmed_by_rcr_on_warmup_events(tmp_path):
    # warm-up informs the popularity estimate only; metrics cover the rest
    lines = [f"{i},u,c{i % 3}" for i in range(10)]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    topo = Topology(num_bs=1, edge_delay=(10.0,), peer_delay=((0.0,),),
                    cdn_delay=100.0)
    config = ExperimentConfig(policy="octopus", trace_path=str(path),
                              capacities=CacheCapacities(cloud=3, edge=(1,)),
                              warmup_frac=0.2, master_seed=0, topology=topo)
    metrics = run_experiment(config)
    assert metrics.requests_total == 8


def test_malformed_events_are_tallied():
    topo = canonical_topology()
    pop = Popularity(np.array([0.5, 0.3, 0.2]))
    config = ExperimentConfig(policy="eo", num_files=3,
                              capacities=CacheCapacities(cloud=1, edge=(1, 1)),
                              zipf_alpha=0.8, num_requests=50, num_users=2,
                              warmup_frac=0.0, master_seed=1, topology=topo,
                              popularity=pop,
                              user_assignment={1: 1})  # user 2 unknown
    metrics = run_experiment(config)
    assert metrics.malformed_events > 0
    assert metrics.requests_total + metrics.malformed_events == 50


@pytest.mark.parametrize("policy", ["lfu", "lru"])
def test_warmup_skips_uncovered_users(policy):
    # users 3 and 4 have no home BS: their warm-up events are skipped
    # untallied, their evaluation events are tallied malformed
    config = small_config(policy=policy, num_requests=1000, num_users=4,
                          user_assignment={1: 1, 2: 2})
    metrics = run_experiment(config)
    assert metrics.malformed_events > 0
    assert metrics.requests_total + metrics.malformed_events == 800


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_evaluation_window_of_uncovered_users_tallies_nothing(policy, tmp_path):
    # u1 makes the two warm-up requests; x, who has no home BS, makes all
    # eight evaluation requests
    path = tmp_path / "trace.csv"
    path.write_text("".join(f"{i},{'u1' if i < 2 else 'x'},c{i % 3}\n"
                            for i in range(10)), encoding="utf-8")
    config = ExperimentConfig(policy=policy, trace_path=str(path),
                              topology=canonical_topology(),
                              capacities=CacheCapacities(cloud=1, edge=(1, 1)),
                              user_assignment={"u1": 1})
    metrics = run_experiment(config)
    assert metrics.requests_total == 0
    assert metrics.sum_delay_ms == 0.0
    assert metrics.malformed_events == 8


def mixed_coverage_trace(path):
    """A trace with string ids, out-of-order times and bad lines, whose users
    x0 and x1 appear in both the warm-up and the evaluation window."""
    rng = np.random.default_rng(21)
    lines = ["timestamp,user_id,content_id"]
    for i in range(600):
        user = f"u{int(rng.integers(6))}" if i % 7 else f"x{i % 2}"
        stamp = i + float(rng.uniform(0.0, 3.0))
        lines.append(f"{stamp:.3f},{user},c{int(rng.zipf(1.6)) % 40}")
    lines[100:100] = ["1,u1", "x,u1,c1", "2,,c3"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def replay_configs(tmp_path):
    """A trace cell, a synthetic cell and the synthetic cell with every
    capacity 0, each leaving some users without a home BS (x0 and x1;
    users 5 and 6)."""
    trace = ExperimentConfig(policy="eo", num_bs=3, trace_path=mixed_coverage_trace(
                                 tmp_path / "trace.csv"),
                             capacities=CacheCapacities(cloud=6, edge=(2, 3, 2)),
                             master_seed=4,
                             user_assignment={f"u{k}": k % 3 + 1 for k in range(6)})
    synthetic = small_config(num_users=6, num_requests=2000,
                             user_assignment={1: 1, 2: 2, 3: 3, 4: 1})
    empty = replace(synthetic, capacities=CacheCapacities(cloud=0, edge=(0, 0, 0)))
    return {"trace": trace, "synthetic": synthetic, "zero-capacity": empty}


@pytest.mark.parametrize("workload", ["trace", "synthetic", "zero-capacity"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_replay_equals_per_request_loop(policy, workload, tmp_path, monkeypatch):
    # the columnar replay against the per-event on_request loop, bit for bit;
    # octopus calls reactive replacement only on the misses that swap, and
    # the trace and synthetic cells have some
    config = replace(replay_configs(tmp_path)[workload], policy=policy)
    built, traces, swaps = [], [], []
    make_policy, resolve = octocache.engine.make_policy, octocache.engine._resolve_workload
    rcr_swaps = octocache.policies._rcr_swaps
    monkeypatch.setattr(octocache.engine, "make_policy",
                        lambda *args, **kwargs: built.append((args, kwargs))
                        or make_policy(*args, **kwargs))
    monkeypatch.setattr(octocache.engine, "_resolve_workload",
                        lambda *args: traces.append(resolve(*args)) or traces[-1])
    monkeypatch.setattr(octocache.policies, "_rcr_swaps",
                        lambda ev, file: swaps.append(rcr_swaps(ev, file)) or swaps[-1])
    got = run_experiment(config)
    if policy == "octopus":
        assert all(swaps) and bool(swaps) == (workload != "zero-capacity")
    monkeypatch.undo()

    [(args, kwargs)], [trace] = built, traces
    reference = make_policy(*args, **kwargs)
    catalog, assignment = args[2], args[5]
    want = Metrics(file_size_bytes=catalog.file_size_bytes)
    warm = int(len(trace.events) * config.warmup_frac)
    uncovered_warm = [e for e in trace.events[:warm] if e.user_id not in assignment]
    assert uncovered_warm
    if policy in ("lfu", "lru"):
        for event in trace.events[:warm]:
            if event.user_id in assignment:
                reference.on_request(event)
    for event in trace.events[warm:]:
        if event.user_id not in assignment:
            want.malformed_events += 1
            continue
        want.record(reference.on_request(event))
    assert want.malformed_events > 0
    assert got.as_dict() == want.as_dict()
    assert got.sum_delay_ms == want.sum_delay_ms


@pytest.mark.parametrize("workload", ["trace", "synthetic", "zero-capacity"])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_replay_builds_no_request_events(policy, workload, tmp_path, monkeypatch):
    def no_events(*args, **kwargs):
        raise AssertionError("a RequestEvent was built")

    monkeypatch.setattr(octocache.workload, "RequestEvent", no_events)
    config = replace(replay_configs(tmp_path)[workload], policy=policy)
    assert run_experiment(config).requests_total > 0


# ------------------------------------------------------------------- sweeps

def test_sweep_rows_and_order():
    rows = run_sweep(small_config(), "zipf_alpha", [0.6, 0.8])
    assert [r.axis_value for r in rows] == [0.6, 0.8]
    assert all(r.policy == "octopus" for r in rows)
    assert all(r.seed == 7 for r in rows)


def test_sweep_policy_axis():
    rows = run_sweep(small_config(capacities=None, total_cache_bytes=10**9),
                     "policy", ["eo", "ecnc"])
    assert [r.policy for r in rows] == ["eo", "ecnc"]
    # identical workload seeds: same number of evaluated requests
    assert rows[0].metrics.requests_total == rows[1].metrics.requests_total


def test_sweep_empty_values():
    assert run_sweep(small_config(), "zipf_alpha", []) == []


def test_sweep_rejects_jobs_below_one():
    with pytest.raises(ConfigError):
        run_sweep(small_config(), "zipf_alpha", [0.6], jobs=-2)


def test_sweep_unknown_axis():
    with pytest.raises(ConfigError):
        run_sweep(small_config(), "backhaul", [1])


def test_sweep_capacity_axis_monotone_hit_ratio():
    base = small_config(policy="octopus", num_files=400, capacities=None,
                        num_requests=6000, num_users=120)
    budgets = [2_000_000_000, 4_000_000_000, 8_000_000_000]
    rows = run_sweep(base, "total_cache_bytes", budgets)
    ratios = [r.metrics.hit_ratio for r in rows]
    assert ratios == sorted(ratios)


def test_sweep_parallel_matches_serial():
    base = small_config(num_requests=2000)
    serial = run_sweep(base, "zipf_alpha", [0.6, 0.7, 0.8], jobs=1)
    parallel = run_sweep(base, "zipf_alpha", [0.6, 0.7, 0.8], jobs=3)
    assert [r.metrics.as_dict() for r in serial] == \
           [r.metrics.as_dict() for r in parallel]


def test_sweep_starts_at_most_one_worker_per_cell(monkeypatch):
    # a recording stand-in for the process pool: no process starts
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(octocache.engine, "ProcessPoolExecutor", InlinePool)
    rows = run_sweep(small_config(num_requests=1000), "zipf_alpha", [0.6, 0.8],
                     jobs=500)
    assert workers == [2]
    assert [r.axis_value for r in rows] == [0.6, 0.8]


def test_policy_sweep_csv_is_pinned():
    # every policy at two budgets; the rows cover all four sources and 38
    # committed octopus swaps, so any change to routing, replacement or
    # accounting moves this hash
    rows = []
    for budget in (2 * 10**9, 10 * 10**9):
        base = ExperimentConfig(policy="octopus", num_bs=3, num_files=500,
                                total_cache_bytes=budget, zipf_alpha=0.8,
                                num_requests=5000, num_users=60, master_seed=11)
        rows += run_sweep(base, "policy", list(POLICY_NAMES))
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == ("1c510b4410fcd251416678321a5e301b"
                      "8d9e4b3dc194209ee056f9f3e2c52530")


def test_rows_to_csv_shape():
    rows = run_sweep(small_config(num_requests=1000), "zipf_alpha", [0.8])
    text = rows_to_csv(rows, header_lines=["cfg"])
    lines = text.strip().split("\n")
    assert lines[0] == "# cfg"
    assert lines[1].startswith("policy,axis_value,seed,requests,hit_ratio")
    assert lines[2].split(",")[0] == "octopus"
    assert len(lines) == 3
