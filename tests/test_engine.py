import concurrent.futures
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import octocache.engine
import octocache.policies
import octocache.workload
from octocache import (POLICY_NAMES, CacheCapacities, Catalog, ConfigError,
                       ExperimentConfig, Metrics, Popularity, SweepRow,
                       Topology, capacities_from_budget, derive_seed,
                       generate_requests, make_policy, pcd, prepare, replay,
                       rows_to_csv, run_experiment, run_sweep,
                       total_expected_delay, zipf_popularity)
from octocache.routing import Source, SourceKind
from octocache.topology import uturn_peer_delays


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


def test_run_smoothing_is_a_constant():
    # the popularity estimate's Laplace smoothing is fixed, not a config field
    assert small_config().smoothing == 1.0
    with pytest.raises(TypeError):
        small_config(smoothing=0.5)


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


def test_file_size_below_one_byte_is_rejected():
    # 1e-9 MB rounds to 0 bytes, which capacities_from_budget would divide by
    with pytest.raises(ValueError, match="at least one byte"):
        Catalog(num_files=4, file_size_mb=1e-9)
    with pytest.raises(ValueError, match="at least one byte"):
        run_experiment(small_config(policy="eo", capacities=None, file_size_mb=1e-9,
                                    total_cache_bytes=10**9))
    assert Catalog(num_files=4, file_size_mb=1e-6).file_size_bytes == 1


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
    built, swaps = [], []
    make_policy, rcr_swaps = octocache.engine.make_policy, octocache.policies._rcr_swaps
    monkeypatch.setattr(octocache.engine, "make_policy",
                        lambda *args, **kwargs: built.append((args, kwargs))
                        or make_policy(*args, **kwargs))
    monkeypatch.setattr(octocache.policies, "_rcr_swaps",
                        lambda ev, file: swaps.append(rcr_swaps(ev, file)) or swaps[-1])
    got = run_experiment(config)
    if policy == "octopus":
        assert all(swaps) and bool(swaps) == (workload != "zero-capacity")
    monkeypatch.undo()

    [(args, kwargs)], trace = built, prepare(config).trace
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


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_run_experiment_is_prepare_then_replay(policy, tmp_path):
    # two replays of one instance, each with a fresh policy on the capacities
    # split from the config's budget, equal a fresh run
    config = replace(replay_configs(tmp_path)["trace"], policy=policy,
                     capacities=None, total_cache_bytes=4 * 10**8)
    instance = prepare(config)
    capacities = capacities_from_budget(config.total_cache_bytes, instance.topology,
                                        instance.catalog, config.cloud_edge_ratio)
    runs = [replay(instance, make_policy(policy, instance.topology, instance.catalog,
                                         instance.popularity, capacities,
                                         instance.topology.users))
            for _ in range(2)]
    assert runs[0] == runs[1] == run_experiment(config)


def test_trace_cells_parse_their_file_once(tmp_path, monkeypatch):
    # cells replaying one trace file share its parse, and each cell's metrics
    # equal those of a cell that parses the file afresh
    base = replay_configs(tmp_path)["trace"]
    calls, parse = [], octocache.workload.parse_trace
    monkeypatch.setattr(octocache.workload, "parse_trace",
                        lambda source: calls.append(source) or parse(source))

    def cells(fresh):
        rows = []
        for policy in ["eo", "ecnc", "exmpc", "femtox"]:
            if fresh or not rows:
                monkeypatch.setattr(octocache.workload, "_last_stream", None,
                                    raising=False)
            rows.append(run_experiment(replace(base, policy=policy)).as_dict())
        return rows

    want = cells(fresh=True)
    assert len(calls) == 4
    assert cells(fresh=False) == want
    assert len(calls) == 5


@pytest.fixture
def draws(monkeypatch):
    """The synthetic streams ``prepare`` draws from here on, starting from
    an empty slot."""
    calls, generate = [], octocache.engine.generate_requests
    monkeypatch.setattr(octocache.workload, "_last_stream", None)
    monkeypatch.setattr(octocache.engine, "generate_requests",
                        lambda *args: calls.append(args) or generate(*args))
    return calls


def test_synthetic_cells_draw_their_stream_once(draws, monkeypatch):
    # cells of one synthetic config share one drawn stream, and each cell's
    # metrics equal those of a cell that draws it afresh
    base = small_config()

    def cells(fresh):
        rows = []
        for policy in POLICY_NAMES:
            if fresh or not rows:
                monkeypatch.setattr(octocache.workload, "_last_stream", None)
            rows.append(run_experiment(replace(base, policy=policy)).as_dict())
        return rows

    want = cells(fresh=True)
    assert len(draws) == len(POLICY_NAMES) == 7
    assert cells(fresh=False) == want
    assert len(draws) == 8


@pytest.mark.parametrize("change, drawn", [
    ({"num_files": 61}, True), ({"zipf_alpha": 0.9}, True),
    ({"num_requests": 4001}, True), ({"num_users": 59}, True),
    ({"master_seed": 8}, True),
    ({"num_requests": 4000.0}, False), ({"num_users": 60.0}, False),
    ({"policy": "lru"}, False)])
def test_a_synthetic_stream_is_drawn_again_only_when_an_input_changes(
        change, drawn, draws, monkeypatch):
    prepare(small_config())
    got = prepare(small_config(**change)).trace
    assert len(draws) == 1 + drawn
    monkeypatch.setattr(octocache.workload, "_last_stream", None)
    assert got == prepare(small_config(**change)).trace
    assert (got != prepare(small_config()).trace) == drawn


def test_a_prepared_synthetic_trace_cannot_change_the_next(draws):
    config = small_config()
    instance = prepare(config)
    first = instance.trace
    homes, probs = instance.home_bs.copy(), instance.popularity.probs.copy()
    users = dict(instance.topology.users)
    for column in (first.times, first.user_index, first.file_ids, instance.home_bs):
        for array in (column, column.base):  # the view, then the kept column
            with pytest.raises(ValueError):
                array.flags.writeable = True
    first.file_ids.shape = (40, 100)
    first.times = np.zeros(3)
    first.catalog_size = 99
    instance.home_bs.shape = (40, 100)
    instance.popularity.probs.flags.writeable = True
    instance.popularity.probs[:] = 0.0
    instance.topology.users.clear()
    instance.topology.users["intruder"] = 1
    second = prepare(config)
    assert len(draws) == 1
    assert second.trace.file_ids.shape == (4000,)
    assert second.trace == generate_requests(zipf_popularity(60, 0.8), 4000,
                                             list(range(1, 61)), config.seeds()["workload"])
    assert np.array_equal(second.home_bs, homes) and second.home_bs.shape == (4000,)
    assert np.array_equal(second.popularity.probs, probs)
    assert second.topology.users == users and list(second.topology.users) == list(users)


def test_one_stream_is_kept_whatever_its_source(draws, tmp_path, monkeypatch):
    # a synthetic stream takes the slot of the last parse, so the process
    # keeps one trace and the file is parsed again
    configs = replay_configs(tmp_path)
    calls, parse = [], octocache.workload.parse_trace
    monkeypatch.setattr(octocache.workload, "parse_trace",
                        lambda source: calls.append(source) or parse(source))
    trace = prepare(configs["trace"]).trace
    assert prepare(configs["trace"]).trace == trace and len(calls) == 1
    prepare(configs["synthetic"])
    key, kept = octocache.workload._last_stream
    assert type(key) is tuple and kept.catalog_size == configs["synthetic"].num_files
    assert prepare(configs["trace"]).trace == trace and len(calls) == 2
    assert len(draws) == 1


def test_prepare_takes_the_user_map_by_one_rule():
    # user_assignment, else the users the config topology was built with,
    # else the seeded draw
    users = {1: 1, 2: 1, 3: 1, 4: 1}
    topo = Topology(num_bs=2, edge_delay=(10.0, 20.0),
                    peer_delay=((0.0, 30.0), (30.0, 0.0)), cdn_delay=100.0,
                    users=users)
    config = small_config(num_bs=2, num_users=4, topology=topo,
                          capacities=CacheCapacities(cloud=20, edge=(5, 5)))
    instance = prepare(config)
    assert instance.topology is topo and instance.topology.users == users
    assert set(instance.home_bs.tolist()) == {1}
    given = {1: 2, 2: 2, 3: 1, 4: 2}
    assert prepare(replace(config, user_assignment=given)).topology.users == given
    drawn = prepare(replace(config, topology=canonical_topology())).topology.users
    assert sorted(drawn) == [1, 2, 3, 4] and drawn != users


@pytest.fixture
def builds(monkeypatch):
    """The instances ``prepare`` builds from here on, starting from an empty
    stream slot and an empty instance slot."""
    calls, build = [], octocache.engine._build
    monkeypatch.setattr(octocache.workload, "_last_stream", None)
    monkeypatch.setattr(octocache.engine, "_last_instance", None)
    monkeypatch.setattr(octocache.engine, "_build",
                        lambda *args: calls.append(args) or build(*args))
    return calls


def given_network(**overrides):
    """A synthetic config whose topology, user map and popularity are given."""
    topology = Topology(num_bs=3, edge_delay=(10.0, 20.0, 15.0),
                        peer_delay=uturn_peer_delays((10.0, 20.0, 15.0)), cdn_delay=100.0)
    given = dict(num_users=4, topology=topology, user_assignment={1: 1, 2: 2, 3: 3, 4: 1},
                 popularity=Popularity.from_weights(np.arange(60.0, 0.0, -1.0)))
    return small_config(**{**given, **overrides})


def equal_instances(a, b):
    """Whether two instances hold equal parts, the user maps in one order."""
    return (a.trace == b.trace and a.catalog == b.catalog and a.topology == b.topology
            and list(a.topology.users) == list(b.topology.users)
            and a.popularity.probs.tobytes() == b.popularity.probs.tobytes()
            and a.warm_count == b.warm_count and a.home_bs.dtype == b.home_bs.dtype
            and np.array_equal(a.home_bs, b.home_bs))


def _swap_first_two(popularity):
    popularity.probs.flags.writeable = True
    popularity.probs[[0, 1]] = popularity.probs[[1, 0]]


def _append_a_request(config):
    with open(config.trace_path, "a", encoding="utf-8") as handle:
        handle.write("9999,u1,c1\n")
    return config


def _copy_trace(config):
    copy = Path(config.trace_path).with_name("copy.csv")
    copy.write_bytes(Path(config.trace_path).read_bytes())
    return replace(config, trace_path=str(copy))


@pytest.mark.parametrize("base, change, rebuilt", [
    ("drawn", lambda c: replace(c, num_files=61), True),
    ("drawn", lambda c: replace(c, zipf_alpha=0.9), True),
    ("drawn", lambda c: replace(c, num_requests=4001), True),
    ("drawn", lambda c: replace(c, num_users=59), True),
    ("drawn", lambda c: replace(c, master_seed=8), True),
    ("drawn", lambda c: replace(c, file_size_mb=21.0), True),
    ("drawn", lambda c: replace(c, file_size_mb=20), True),  # 20.0 as an int
    ("drawn", lambda c: replace(c, num_bs=4), True),
    ("drawn", lambda c: replace(c, warmup_frac=0.3), True),
    ("drawn", lambda c: replace(c, policy="lru", capacities=None,
                                total_cache_bytes=10**9), False),
    ("drawn", lambda c: replace(c, num_requests=4000.0), False),
    ("given", lambda c: replace(c, topology=replace(c.topology, cdn_delay=90.0)), True),
    ("given", lambda c: replace(c, topology=replace(c.topology)), False),
    ("given", lambda c: replace(c, user_assignment={1: 2, 2: 2, 3: 3, 4: 1}), True),
    ("given", lambda c: replace(c, user_assignment={2: 2, 1: 1, 3: 3, 4: 1}), True),
    ("given", lambda c: replace(c, user_assignment=dict(c.user_assignment)), False),
    ("given", lambda c: replace(c, user_assignment=None), True),  # the topology's none
    ("given", lambda c: replace(c, popularity=Popularity.from_weights(np.ones(60))), True),
    ("given", lambda c: _swap_first_two(c.popularity) or c, True),
    ("given", lambda c: replace(c, popularity=replace(c.popularity)), False),
    ("trace", _append_a_request, True),
    ("trace", _copy_trace, False),
], ids=["num_files", "zipf_alpha", "num_requests", "num_users", "master_seed",
        "file_size_mb", "file_size_mb-type", "num_bs", "warmup_frac", "policy-budget",
        "num_requests-float", "topology", "topology-copy", "user_assignment-content",
        "user_assignment-order", "user_assignment-copy", "user_assignment-none",
        "popularity", "popularity-in-place", "popularity-copy", "trace-bytes",
        "trace-copy"])
def test_a_kept_instance_is_rebuilt_when_any_input_changes(
        base, change, rebuilt, builds, tmp_path, monkeypatch):
    # each input prepare reads, changed alone, builds the instance again,
    # and the result equals an instance built from empty slots
    config = {"drawn": small_config, "given": given_network,
              "trace": lambda: replay_configs(tmp_path)["trace"]}[base]()
    prepare(config)
    changed = change(config)
    got = prepare(changed)
    assert len(builds) == 1 + rebuilt
    monkeypatch.setattr(octocache.workload, "_last_stream", None)
    monkeypatch.setattr(octocache.engine, "_last_instance", None)
    assert equal_instances(got, prepare(changed))


def test_a_changed_smoothing_rebuilds_the_instance(builds, monkeypatch):
    config = small_config()
    first = prepare(config)
    monkeypatch.setattr(ExperimentConfig, "smoothing", 0.5)
    second = prepare(config)
    assert len(builds) == 2
    assert second.popularity.probs.tobytes() != first.popularity.probs.tobytes()


def test_prepare_hands_out_the_given_topology_and_popularity(builds):
    # parts taken from the config are the config's own objects on every call,
    # as at a build; the kept copies are never handed out
    config = given_network(user_assignment=None)
    config = replace(config, topology=config.topology.with_users({1: 1, 2: 2, 3: 3, 4: 1}))
    for _ in range(2):
        instance = prepare(config)
        assert instance.topology is config.topology
        assert instance.popularity is config.popularity
    other = prepare(replace(config, user_assignment={1: 1, 2: 2, 3: 3, 4: 1}))
    assert len(builds) == 1 and other.topology is not config.topology
    assert other.topology == config.topology


@pytest.mark.parametrize("invalid", [
    {"num_requests": 0},  # empty evaluation window
    {"warmup_frac": 1.5},
    {"popularity": Popularity.from_weights(np.ones(59))},
], ids=["empty-window", "warmup_frac", "popularity-length"])
def test_a_repeated_invalid_config_still_raises(invalid, builds):
    valid = small_config()
    want = prepare(valid)
    for _ in range(2):
        with pytest.raises(ConfigError):
            prepare(small_config(**invalid))
    assert equal_instances(prepare(valid), want)


def test_replay_gathers_views_when_every_user_has_a_home(monkeypatch):
    # a policy replays views of the instance's columns, not copies, when no
    # request has to be skipped
    config = small_config()
    instance = prepare(config)
    assert instance.home_bs.all()
    seen = []
    policy = make_policy("eo", instance.topology, instance.catalog, instance.popularity,
                         config.capacities, instance.topology.users)
    replay_of = policy.replay
    monkeypatch.setattr(policy, "replay",
                        lambda bs, files: seen.append((bs, files)) or replay_of(bs, files))
    replay(instance, policy)
    [(bs, files)] = seen
    assert np.shares_memory(bs, instance.home_bs)
    assert np.shares_memory(files, instance.trace.file_ids)


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
    # a policy axis takes its policies from its values
    with pytest.raises(ConfigError, match="policy sweep"):
        run_sweep(small_config(), "policy", ["eo"], policies=["eo", "ecnc"])


def test_sweep_empty_values():
    assert run_sweep(small_config(), "zipf_alpha", []) == []


def test_sweep_rejects_jobs_below_one():
    with pytest.raises(ConfigError):
        run_sweep(small_config(), "zipf_alpha", [0.6], jobs=-2)


@pytest.mark.parametrize("jobs", [2.5, "2", math.nan])
def test_sweep_rejects_jobs_that_are_not_whole_before_preparing(jobs, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("prepared before jobs was checked")

    monkeypatch.setattr(octocache.engine, "prepare", unreachable)
    with pytest.raises(ConfigError, match="jobs must be a whole number"):
        run_sweep(small_config(), "zipf_alpha", [0.6, 0.7, 0.8], jobs=jobs)


def test_sweep_jobs_true_is_one_serial_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial sweep started a pool")

    base = small_config(num_requests=1000)
    serial = run_sweep(base, "zipf_alpha", [0.6, 0.8])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rows = run_sweep(base, "zipf_alpha", [0.6, 0.8], jobs=True)
    assert [r.metrics.as_dict() for r in rows] == [r.metrics.as_dict() for r in serial]


def test_import_loads_no_process_pool():
    # the pool stack (multiprocessing, logging, socket, subprocess) is
    # imported by a parallel sweep alone, not by the library or the CLI
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, octocache, octocache.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_sweep_unknown_axis():
    with pytest.raises(ConfigError):
        run_sweep(small_config(), "backhaul", [1])


def test_sweep_validates_its_whole_grid_before_any_cell(monkeypatch):
    # an unknown policy after a valid one stops the sweep before any
    # instance is prepared or any policy built
    def unreachable(*args, **kwargs):
        raise AssertionError("called before the grid was validated")

    monkeypatch.setattr(octocache.engine, "prepare", unreachable)
    monkeypatch.setattr(octocache.engine, "make_policy", unreachable)
    with pytest.raises(ConfigError, match="unknown policy 'bogus'"):
        run_sweep(small_config(capacities=None), "total_cache_bytes",
                  [10**8, 2 * 10**8], policies=["octopus", "bogus"])


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
    # a recording stand-in for the process pool: no process starts, and the
    # initializer hands this process the sweep's instances
    workers = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(octocache.engine, "_worker_instances", {})
    rows = run_sweep(small_config(num_requests=1000), "zipf_alpha", [0.6, 0.8],
                     jobs=500)
    assert workers == [2]
    assert [r.axis_value for r in rows] == [0.6, 0.8]


SWEEP_VALUES = {"policy": [*POLICY_NAMES, "octopus", "lfu"],
                "total_cache_bytes": [4 * 10**8, 10**9, 2 * 10**8, 4 * 10**8],
                "zipf_alpha": [0.6, 1.0, 0.6]}


@pytest.mark.parametrize("workload, axis, builds", [
    ("synthetic", "policy", 1), ("synthetic", "total_cache_bytes", 1),
    ("synthetic", "zipf_alpha", 2), ("trace", "policy", 1),
    ("trace", "total_cache_bytes", 1)])
def test_sweep_builds_the_workload_once_unless_its_axis_changes_it(
        workload, axis, builds, tmp_path, monkeypatch):
    def recording(name, into):
        build = getattr(octocache.engine, name)
        monkeypatch.setattr(octocache.engine, name, lambda *args, **kwargs:
                            into.append(build(*args, **kwargs)) or into[-1])

    traces, instances, policies = [], [], []
    monkeypatch.setattr(octocache.workload, "_last_stream", None)  # nothing kept
    recording("parse_trace_file", traces)
    recording("generate_requests", traces)
    recording("prepare", instances)
    recording("make_policy", policies)
    values = SWEEP_VALUES[axis][:3]
    run_sweep(replay_configs(tmp_path)[workload], axis, values)
    assert len(traces) == len(instances) == builds
    assert len(policies) == len(values)
    # every policy runs on its instance's populated topology, not a copy
    topologies = [instance.topology for instance in instances]
    assert all(any(policy.topology is topology for topology in topologies)
               for policy in policies)


def rows_or_error(run):
    try:
        return run()
    except ConfigError as exc:  # a trace config has no zipf_alpha axis
        return str(exc)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("axis", octocache.engine.SWEEP_AXES)
@pytest.mark.parametrize("workload", ["trace", "synthetic"])
def test_shared_instance_rows_equal_fresh_rows(workload, axis, jobs, tmp_path):
    # a value listed twice replays the shared instance after other cells, so
    # a cell that left state in it would change the repeated row; the grid
    # runs policy by policy, and a policy axis takes its policies from values
    base, values = replay_configs(tmp_path)[workload], SWEEP_VALUES[axis]
    policies = ["lfu"] if axis == "policy" else ["lfu", "octopus", "eo"]
    reset = {"capacities": None} if axis == "total_cache_bytes" else {}

    def fresh_rows():
        return [SweepRow(cell.policy, value, cell.master_seed, run_experiment(cell))
                for policy in policies for value in values
                for cell in [replace(base, **{"policy": policy, axis: value}, **reset)]]

    def sweep():
        return run_sweep(base, axis, values, jobs=jobs, policies=policies)

    rows = rows_or_error(sweep)
    assert rows == rows_or_error(fresh_rows)
    assert rows == rows_or_error(sweep)


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
