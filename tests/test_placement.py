import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octocache.placement
from octocache import (CacheCapacities, Catalog, OracleSizeError, Placement,
                       Popularity, RoutingMode, Topology, brute_force_optimal,
                       build_paper_topology, marginal_loss, pcd, rcr, utility,
                       zipf_popularity)
from octocache.placement import (SWAP_MIN_RELATIVE_GAIN, _rcr_swaps,
                                 _rcr_triggers, _swap_commits, place_ecnc,
                                 place_eo, place_exmpc, place_femtox, top_popular)
from octocache.routing import UtilityEvaluator
from octocache.topology import uturn_peer_delays

from conftest import enumerate_optimal, random_feasible_placement, random_instance

# --------------------------------------------------------------------- pcd

def test_pcd_canonical(canonical):
    topo, catalog, pop, caps = canonical
    report = pcd(topo, catalog, pop, caps)
    assert report.placement.contents == [{1}, {2}, {3}]
    assert report.final_utility == pytest.approx(170.0)
    assert report.iterations == 3
    # hand-traceable greedy: cloud gets f1 (85), then f2 at BS1 (51),
    # then f3 at BS2 (34)
    chosen = [(s["file"], s["cache"]) for s in report.steps]
    assert chosen == [(1, 0), (2, 1), (3, 2)]
    gains = [s["gain"] for s in report.steps]
    assert gains == pytest.approx([85.0, 51.0, 34.0])


def test_pcd_matches_bruteforce_on_canonical(canonical):
    topo, catalog, pop, caps = canonical
    best_val, best_contents = enumerate_optimal(topo, catalog, pop, caps)
    assert best_val == pytest.approx(170.0)
    report = pcd(topo, catalog, pop, caps)
    assert report.final_utility == pytest.approx(best_val)
    assert report.placement.contents == best_contents


def test_pcd_zero_capacity(canonical):
    topo, catalog, pop, _ = canonical
    report = pcd(topo, catalog, pop, CacheCapacities(cloud=0, edge=(0, 0)))
    assert report.placement.size() == 0
    assert report.final_utility == 0.0
    assert report.iterations == 0


def test_pcd_saturation(canonical):
    topo, catalog, pop, _ = canonical
    caps = CacheCapacities(cloud=3, edge=(3, 3))
    report = pcd(topo, catalog, pop, caps)
    assert all(c == {1, 2, 3} for c in report.placement.contents)
    assert report.final_utility == pytest.approx(2 * 100.0)


def test_pcd_clamps_oversized_capacity(canonical):
    topo, catalog, pop, _ = canonical
    report = pcd(topo, catalog, pop, CacheCapacities(cloud=10, edge=(1, 1)))
    assert report.warnings and "clamped" in report.warnings[0]
    assert report.placement.cache_size(0) == 3


def test_pcd_fills_every_cache_and_trace_monotone():
    rng = np.random.default_rng(8)
    for _ in range(30):
        topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=7, max_cap=3)
        report = pcd(topo, catalog, pop, caps)
        expected_iters = sum(min(c, catalog.num_files) for c in caps.as_list())
        assert report.iterations == expected_iters
        for cache, cap in enumerate(caps.as_list()):
            assert report.placement.cache_size(cache) == min(cap, catalog.num_files)
        trace = report.utility_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert report.placement.is_feasible()
        # reported utility is consistent with a fresh evaluation
        assert report.final_utility == pytest.approx(
            utility(report.placement, topo, pop), rel=1e-9)


def test_report_records_are_json_ready(canonical):
    import json

    topo, catalog, pop, caps = canonical
    report = pcd(topo, catalog, pop, caps)
    records = report.steps
    assert [r["iteration"] for r in records] == [1, 2, 3]
    assert {"file", "cache", "gain", "utility"} <= set(records[0])
    json.dumps(records)  # plain structures only


def test_pcd_deterministic(canonical):
    topo, catalog, pop, caps = canonical
    a = pcd(topo, catalog, pop, caps)
    b = pcd(topo, catalog, pop, caps)
    assert a.placement == b.placement
    assert a.utility_trace == b.utility_trace


def test_pcd_tiebreak_lowest_file_then_cache():
    # one BS, uniform popularity: the local slot wins first (0.5 * 100 over
    # the cloud's 0.5 * 90) and takes file 1 by the file-index tie rule;
    # the cloud then prefers fresh f2 (45) over duplicating f1 (0)
    topo = Topology(num_bs=1, edge_delay=(10.0,), peer_delay=((0.0,),),
                    cdn_delay=100.0, users=(("u", 1),))
    catalog = Catalog(num_files=2)
    pop = Popularity(np.array([0.5, 0.5]))
    report = pcd(topo, catalog, pop, CacheCapacities(cloud=1, edge=(1,)))
    chosen = [(s["file"], s["cache"]) for s in report.steps]
    assert chosen == [(1, 1), (2, 0)]


def _naive_greedy_run(topo, catalog, pop, caps, mode):
    """Reference greedy: rescan every open copy's marginal gain each step,
    keeping the first maximum in (file, cache) order. Returns the
    placement, the utility trace and one step record per copy."""
    sizes = [min(c, catalog.num_files) for c in caps.as_list()]
    ev = UtilityEvaluator(topo, pop, Placement(caps, catalog.num_files), mode=mode)
    trace = [ev.utility()]
    steps = []
    for _ in range(sum(sizes)):
        best = None
        for file in range(1, catalog.num_files + 1):
            for cache, size in enumerate(sizes):
                if ev.placement.contains(file, cache) or ev.placement.cache_size(cache) == size:
                    continue
                gain = ev.marginal_gain(file, cache)
                if best is None or gain > best[0]:
                    best = (gain, file, cache)
        ev.add(best[1], best[2])
        trace.append(trace[-1] + best[0])
        steps.append({"iteration": len(steps) + 1, "file": best[1],
                      "cache": best[2], "gain": best[0], "utility": trace[-1]})
    return ev.placement, trace, steps


def _naive_greedy(topo, catalog, pop, caps, mode):
    return _naive_greedy_run(topo, catalog, pop, caps, mode)[:2]


def test_pcd_equals_naive_greedy():
    # random instances, plus tie-heavy ones: equal fronthaul delays (equal
    # U-turn costs) and uniform popularity, where only the tie rule decides
    rng = np.random.default_rng(19)
    for i in range(60):
        topo, catalog, pop, caps = random_instance(rng, max_bs=4, max_files=9, max_cap=4)
        if i % 2:
            delays = (15.0,) * topo.num_bs
            topo = Topology(num_bs=topo.num_bs, edge_delay=delays,
                            peer_delay=uturn_peer_delays(delays), cdn_delay=80.0,
                            users=topo.users)
            pop = Popularity.from_weights(np.ones(catalog.num_files))
        for mode in (RoutingMode.FULL, RoutingMode.EDGE_CLOUD):
            report = pcd(topo, catalog, pop, caps, mode=mode)
            placement, trace = _naive_greedy(topo, catalog, pop, caps, mode)
            assert report.placement == placement
            assert report.utility_trace == trace


def test_pcd_steps_equal_naive_greedy():
    # caps above F are clamped, caps of 0 close a cache from the start, one
    # in four instances has a single BS, and in one in three a BS may have
    # no users, so copies of different files and steps tie in gain
    rng = np.random.default_rng(43)
    seen = set()
    for i in range(48):
        topo, catalog, pop, caps = random_instance(
            rng, max_bs=1 if i % 4 == 0 else 4, max_files=7, max_cap=9,
            users_per_bs=(0, 2) if i % 3 == 0 else (1, 3))
        F = catalog.num_files
        seen.update({"clamped"} if max(caps.as_list()) > F else set(),
                    {"zero"} if 0 in caps.as_list() else set(),
                    {"single"} if topo.num_bs == 1 else set())
        for mode in (RoutingMode.FULL, RoutingMode.EDGE_CLOUD):
            report = pcd(topo, catalog, pop, caps, mode=mode)
            _, _, steps = _naive_greedy_run(topo, catalog, pop, caps, mode)
            assert report.steps == steps
    assert seen == {"clamped", "zero", "single"}


def test_pcd_steps_replay_as_first_maxima_at_scale():
    # a paper-topology instance with 2,000 files and caches of very
    # different sizes, which close far apart in the greedy's order
    F = 2000
    rng = np.random.default_rng(11)
    topo = build_paper_topology(7, 2024).with_users(
        {f"u{i}": int(b) for i, b in enumerate(rng.integers(1, 8, 300))})
    catalog = Catalog(num_files=F)
    pop = zipf_popularity(F, 0.8)
    caps = CacheCapacities(cloud=700, edge=(20, 350, 90, 500, 5, 160, 240))
    sizes = caps.as_list()
    for mode in (RoutingMode.FULL, RoutingMode.EDGE_CLOUD):
        report = pcd(topo, catalog, pop, caps, mode=mode)
        assert len(report.steps) == sum(sizes)
        ev = UtilityEvaluator(topo, pop, Placement(caps, F), mode=mode)
        total = report.utility_trace[0]
        filled_at = {}
        for step in report.steps:
            shut = ev.mask.T | (np.array([ev.placement.cache_size(k) for k in
                                          range(len(sizes))]) == sizes)
            table = np.where(shut, -np.inf, ev._gain_table())
            j, cache = divmod(int(table.argmax()), len(sizes))
            assert (step["file"], step["cache"]) == (j + 1, cache)
            assert np.float64(step["gain"]).tobytes() == table[j, cache].tobytes()
            total += step["gain"]
            assert step["utility"] == total
            ev.add(j + 1, cache)
            if ev.placement.cache_size(cache) == sizes[cache]:
                filled_at[cache] = step["iteration"]
        assert report.utility_trace == [report.utility_trace[0]] + [
            s["utility"] for s in report.steps]
        assert min(filled_at.values()) < len(report.steps) // 4


def test_pcd_steps_equal_naive_greedy_beside_a_tiny_cache(monkeypatch):
    # one cache with room for 1 or 2 copies beside caches that take about
    # the whole catalog, so the room left exceeds the live files and the
    # tiny cache sets the threshold; in every other instance popularity is
    # uniform and fronthaul delays are equal, so many gains tie at it
    seen = set()
    fill_threshold = octocache.placement._fill_threshold

    def recorded(cache, gain, room):
        threshold = fill_threshold(cache, gain, room)
        if room.sum() > gain.size and threshold > gain.min():
            seen.add("above the smallest frontier gain with room to spare")
        if (gain == threshold).sum() > 1:
            seen.add("ties at the threshold")
        return threshold

    monkeypatch.setattr(octocache.placement, "_fill_threshold", recorded)
    rng = np.random.default_rng(40)
    for i in range(40):
        topo, catalog, pop, _ = random_instance(rng, max_bs=4, max_files=8)
        F, R = catalog.num_files, topo.num_bs
        if i % 2:
            delays = (15.0,) * R
            topo = Topology(num_bs=R, edge_delay=delays,
                            peer_delay=uturn_peer_delays(delays), cdn_delay=80.0,
                            users=topo.users)
            pop = Popularity.from_weights(np.ones(F))
        sizes = [int(rng.integers(F - 1, F + 2)) for _ in range(R + 1)]
        sizes[int(rng.integers(0, R + 1))] = int(rng.integers(1, 3))
        caps = CacheCapacities(cloud=sizes[0], edge=tuple(sizes[1:]))
        for mode in (RoutingMode.FULL, RoutingMode.EDGE_CLOUD):
            report = pcd(topo, catalog, pop, caps, mode=mode)
            _, _, steps = _naive_greedy_run(topo, catalog, pop, caps, mode)
            assert report.steps == steps
    assert seen == {"above the smallest frontier gain with room to spare",
                    "ties at the threshold"}


def _tie_kind(row):
    """Why ``p_j`` times a file's gain sums tied where the sums differ: the
    row of products is all 0 (``p_j = 0``), below the smallest normal float
    (a subnormal ``p_j``), or else two sums lie within rounding."""
    if not row.any():
        return "zero probability"
    if row.max() < np.finfo(float).tiny:
        return "subnormal probability"
    return "near-equal sums"


def test_pcd_steps_equal_naive_greedy_where_products_tie(monkeypatch):
    # pcd picks each holder set's best open cache once; a file whose
    # products p_j * sum tie for two different sums takes the first maximum
    # of its own row, as the naive greedy does
    seen = set()
    best_open = octocache.placement._best_open

    def recorded(gains, shut):
        seen.update(map(_tie_kind, gains))
        return best_open(gains, shut)

    monkeypatch.setattr(octocache.placement, "_best_open", recorded)

    def check(topo, catalog, pop, caps):
        for mode in (RoutingMode.FULL, RoutingMode.EDGE_CLOUD):
            report = pcd(topo, catalog, pop, caps, mode=mode)
            _, _, steps = _naive_greedy_run(topo, catalog, pop, caps, mode)
            assert report.steps == steps

    # one user, at BS 1, whose own edge holds nothing: a copy at BS 2 is
    # worth 90 + 1 ulp to it and one in the cloud 90, which p_j * 90 rounds
    # to one value for files 5 and 6, for file 1 when its p_j is 0 and for
    # file 2 when its p_j is the smallest subnormal
    peer = 10.0 - np.spacing(90.0)
    topo = Topology(num_bs=2, edge_delay=(10.0, 20.0), peer_delay=((0.0, peer), (peer, 0.0)),
                    cdn_delay=100.0, users=(("u", 1),))
    weights = np.random.default_rng(3).random(6) + 0.01
    p = Popularity.from_weights(weights).as_array()
    assert (np.flatnonzero(p * 90.0 == p * np.nextafter(90.0, 100.0)) == [4, 5]).all()
    weights[:2] = 0.0
    q = Popularity.from_weights(weights).as_array().copy()
    q[1] = 5e-324
    for probs in (p, q):
        for caps in (CacheCapacities(cloud=3, edge=(0, 3)), CacheCapacities(cloud=6, edge=(0, 6))):
            check(topo, Catalog(num_files=6), Popularity(probs), caps)
    assert seen == {"near-equal sums", "zero probability", "subnormal probability"}
    # random instances with caches of up to the whole catalog, so copies
    # of files with p_j = 0 or the smallest subnormal p_j are committed
    seen.clear()
    rng = np.random.default_rng(5)
    for i in range(40):
        topo, catalog, _, _ = random_instance(rng, max_bs=3, max_files=7)
        F, R = catalog.num_files, topo.num_bs
        weights = rng.random(F) * (rng.random(F) < 0.6)
        weights[0] += 1.0
        tiny = int(rng.integers(1, F))
        weights[tiny] = 0.0
        probs = Popularity.from_weights(weights).as_array().copy()
        if i % 2:
            probs[tiny] = 5e-324
        sizes = rng.integers(0, F + 1, R + 1)
        check(topo, catalog, Popularity(probs),
              CacheCapacities(cloud=int(sizes[0]), edge=tuple(sizes[1:].tolist())))
    assert "zero probability" in seen


def test_pcd_values_few_copies_it_cannot_commit(monkeypatch):
    # the at-scale instance above: each round grows the chains only as far
    # as the first cache that can fill, so pcd grows 2,776 (FULL) and 3,918
    # (EDGE_CLOUD) chain entries in all, where a threshold at the n-th
    # largest frontier gain, n the room left, valued 13,870 and 17,912 rows
    F = 2000
    rng = np.random.default_rng(11)
    topo = build_paper_topology(7, 2024).with_users(
        {f"u{i}": int(b) for i, b in enumerate(rng.integers(1, 8, 300))})
    catalog, pop = Catalog(num_files=F), zipf_popularity(F, 0.8)
    caps = CacheCapacities(cloud=700, edge=(20, 350, 90, 500, 5, 160, 240))
    chains = octocache.placement._chains
    entries = []

    def counted(*args):
        grown = chains(*args)
        entries.append(grown[0].size)
        return grown

    monkeypatch.setattr(octocache.placement, "_chains", counted)
    for mode, limit in ((RoutingMode.FULL, 8_000), (RoutingMode.EDGE_CLOUD, 9_000)):
        entries.clear()
        pcd(topo, catalog, pop, caps, mode=mode)
        assert sum(entries) < limit


# --------------------------------------------------------------------- rcr

@pytest.fixture
def shifted(canonical):
    # catalog grown to four files; popularity re-weighted so the newcomer
    # f4 outranks f3
    topo, _, _, caps = canonical
    catalog = Catalog(num_files=4)
    pop = Popularity(np.array([0.45, 0.27, 0.09, 0.19]))
    placement = Placement(caps, 4)
    placement.add(1, 0)
    placement.add(2, 1)
    placement.add(3, 2)
    return topo, catalog, pop, placement


def test_rcr_evicts_least_valuable(shifted):
    topo, _, pop, placement = shifted
    report = rcr(placement, 4, topo, pop)
    assert report.placement.contents == [{1}, {2}, {4}]
    assert report.iterations == 1
    # recomputed from scratch: swap moves utility 137.7 -> 154.7
    assert report.utility_trace[0] == pytest.approx(137.7)
    assert report.final_utility == pytest.approx(154.7)
    assert report.final_utility == pytest.approx(utility(report.placement, topo, pop))


def test_rcr_zero_popularity_newcomer(canonical):
    topo, _, _, caps = canonical
    pop = Popularity(np.array([0.5, 0.3, 0.2, 0.0]))
    placement = Placement(caps, 4)
    placement.add(1, 0)
    placement.add(2, 1)
    placement.add(3, 2)
    report = rcr(placement, 4, topo, pop)
    assert report.placement == placement
    assert report.iterations == 0


def test_rcr_rejects_cached_file(shifted):
    topo, _, pop, placement = shifted
    with pytest.raises(ValueError):
        rcr(placement, 3, topo, pop)


def test_rcr_copy_equivalent_file_no_swap(shifted):
    # after f4 displaces f3, a fifth file with identical popularity cannot
    # strictly improve on f4's slot, so nothing moves
    topo, _, _, placement = shifted
    pop5 = Popularity(np.array([0.45, 0.27, 0.09, 0.095, 0.095]))
    placement5 = Placement(placement.capacities, 5)
    for c, f in np.argwhere(placement.mask).tolist():
        placement5.add(f, c)
    first = rcr(placement5, 4, topo, pop5)
    again = rcr(first.placement, 5, topo, pop5)
    assert again.iterations == 0
    assert again.placement == first.placement


def test_rcr_never_decreases_utility_and_respects_capacity():
    rng = np.random.default_rng(17)
    done = 0
    while done < 40:
        topo, catalog, pop, caps = random_instance(rng, max_files=8, max_cap=2)
        report = pcd(topo, catalog, pop, caps)
        uncached = [f for f in range(1, catalog.num_files + 1)
                    if not any(f in c for c in report.placement.contents)]
        if not uncached:
            continue
        new_file = uncached[int(rng.integers(len(uncached)))]
        before = report.final_utility
        after = rcr(report.placement, new_file, topo, pop)
        assert after.final_utility >= before - 1e-9
        assert all(b > a for a, b in zip(after.utility_trace, after.utility_trace[1:]))
        assert after.placement.is_feasible()
        for cache in range(after.placement.num_caches):
            assert after.placement.cache_size(cache) == report.placement.cache_size(cache)
        assert after.iterations <= topo.num_bs + 1
        done += 1


def test_rcr_never_swaps_new_file_for_itself():
    # after a first swap the new file's own copy can be the min-loss copy;
    # evicting it to re-add it is a no-op whose "gain" is float noise
    rng = np.random.default_rng(3)
    for _ in range(200):
        topo, catalog, pop, caps = random_instance(rng, max_bs=4, max_files=10, max_cap=3)
        placement = random_feasible_placement(rng, caps, catalog.num_files, fill=1.0)
        uncached = [f for f in range(1, catalog.num_files + 1)
                    if not any(f in c for c in placement.contents)]
        if not uncached:
            continue
        new_file = uncached[int(rng.integers(len(uncached)))]
        report = rcr(placement, new_file, topo, pop)
        assert all(s["evicted_file"] != new_file for s in report.steps)
        assert all(b > a for a, b in zip(report.utility_trace, report.utility_trace[1:]))


def test_rcr_commits_no_float_noise_swaps():
    # with popularity weights 1 or 2, many files tie in worth; swapping one
    # for an equal one "gains" only rounding noise and must not commit
    rng = np.random.default_rng(5)
    calls = 0
    for _ in range(600):
        topo, catalog, _, caps = random_instance(rng, max_bs=4, max_files=12, max_cap=3)
        pop = Popularity.from_weights(rng.integers(1, 3, catalog.num_files).astype(float))
        warm = pcd(topo, catalog, pop, caps).placement
        uncached = [f for f in range(1, catalog.num_files + 1)
                    if not any(f in c for c in warm.contents)]
        if not uncached:
            continue
        new_file = uncached[int(rng.integers(len(uncached)))]
        report = rcr(warm, new_file, topo, pop)
        calls += 1
        for before, step in zip(report.utility_trace, report.steps):
            assert step["gain"] > 1e-9 * before
    assert calls > 300


def test_swap_rule_needs_more_than_rounding_noise(shifted):
    # the one commit rule, for a gain and for a mask of gains: beating the
    # loss by less than SWAP_MIN_RELATIVE_GAIN of the utility does not
    # commit, and the utility is read only when some gain beats the loss
    topo, _, pop, placement = shifted
    ev = UtilityEvaluator(topo, pop, placement)
    loss, margin = 10.0, SWAP_MIN_RELATIVE_GAIN * ev.utility()
    noise, real = loss + margin / 2, loss + margin * 2
    assert not _swap_commits(ev, noise, loss)
    assert _swap_commits(ev, real, loss)
    assert _swap_commits(ev, np.array([loss, noise, real, 0.0]),
                         loss).tolist() == [False, False, True, False]
    ev.utility = lambda: pytest.fail("utility read with no gain above the loss")
    assert not _swap_commits(ev, loss, loss)
    assert not _swap_commits(ev, np.array([loss, 0.0]), loss).any()


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_rcr_triggers_are_the_misses_that_swap(seed, tied, misses):
    # on a random evaluator state, after a few misses have run, the trigger
    # mask holds exactly the uncached files whose miss commits a swap;
    # weights 1 or 2 make many copies tie in worth
    rng = np.random.default_rng(seed)
    topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=8, max_cap=3)
    if tied:
        pop = Popularity.from_weights(rng.integers(1, 3, catalog.num_files).astype(float))
    ev = UtilityEvaluator(topo, pop, random_feasible_placement(
        rng, caps, catalog.num_files, fill=float(rng.random())))
    for file in rng.integers(1, catalog.num_files + 1, misses).tolist():
        if not ev.mask[:, file - 1].any():
            _rcr_swaps(ev, file)
    triggers = _rcr_triggers(ev)
    assert triggers.shape == (catalog.num_files + 1,) and not triggers[0]
    swapping = [f for f in range(1, catalog.num_files + 1)
                if not ev.mask[:, f - 1].any() and _rcr_swaps(copy.deepcopy(ev), f)]
    assert np.flatnonzero(triggers).tolist() == swapping


def _triggers_from_the_tables(ev):
    """The trigger mask as read from the loss and gain tables alone."""
    triggers = np.zeros(ev.placement.num_files + 1, dtype=bool)
    worst = ev.min_loss_element()
    if worst is not None:
        loss, _, cache = worst
        triggers[1:] = (_swap_commits(ev, ev._gain_table()[:, cache], loss)
                        & ~ev.mask.any(axis=0))
    return triggers


@pytest.mark.parametrize("seed", range(40))
def test_rcr_triggers_read_no_table_when_every_file_is_cached(seed):
    # a placement that caches every file has no trigger, and no table is
    # read to find that; any other placement gets the tables' mask
    rng = np.random.default_rng(seed)
    topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=8, max_cap=4)
    placement = random_feasible_placement(rng, caps, catalog.num_files,
                                          fill=float(rng.random()))
    if seed % 2:  # fill the cloud, so that every file is cached
        num_files = catalog.num_files
        caps = CacheCapacities(cloud=num_files, edge=caps.edge)
        placement = Placement(caps, num_files, [range(1, num_files + 1),
                                                *placement.contents[1:]])
    ev = UtilityEvaluator(topo, pop, placement)
    want = _triggers_from_the_tables(copy.deepcopy(ev))
    if placement.mask[:, 1:].any(axis=0).all():
        for read in ("_loss_table", "_gain_table", "min_loss_element"):
            setattr(ev, read, lambda read=read: pytest.fail(f"{read} read on a full placement"))
    assert _rcr_triggers(ev).tolist() == want.tolist()
    assert seed % 2 == 0 or not want.any()


def test_rcr_swapped_out_element_had_minimum_loss(shifted):
    topo, _, pop, placement = shifted
    losses = {(f, c): marginal_loss(placement, (f, c), topo, pop)
              for c, f in np.argwhere(placement.mask).tolist()}
    report = rcr(placement, 4, topo, pop)
    evicted = (report.steps[0]["evicted_file"], report.steps[0]["cache"])
    assert losses[evicted] == min(losses.values())


# ------------------------------------------------------------------ oracle

def test_bruteforce_canonical(canonical):
    topo, catalog, pop, caps = canonical
    best = brute_force_optimal(topo, catalog, pop, caps)
    assert utility(best, topo, pop) == pytest.approx(170.0)
    assert best.contents == [{1}, {2}, {3}]


def test_bruteforce_zero_capacity(canonical):
    topo, catalog, pop, _ = canonical
    best = brute_force_optimal(topo, catalog, pop, CacheCapacities(cloud=0, edge=(0, 0)))
    assert best.size() == 0


def test_bruteforce_single_file(canonical):
    topo, _, _, caps = canonical
    catalog = Catalog(num_files=1)
    pop = Popularity(np.array([1.0]))
    best = brute_force_optimal(topo, catalog, pop, caps)
    assert best.contents == [{1}, {1}, {1}]


def test_bruteforce_size_guard(canonical):
    topo, _, _, _ = canonical
    catalog = Catalog(num_files=40)
    pop = Popularity(np.full(40, 1 / 40))
    caps = CacheCapacities(cloud=20, edge=(10, 10))
    with pytest.raises(OracleSizeError, match="enumeration bound"):
        brute_force_optimal(topo, catalog, pop, caps)


def test_bruteforce_tie_break_is_first_in_lexicographic_order():
    # uniform popularity over two files with one BS: {1},{2} and {2},{1}
    # both reach 0.5*90 + 0.5*100, and the lexicographically smaller
    # serialization must win deterministically
    topo = Topology(num_bs=1, edge_delay=(10.0,), peer_delay=((0.0,),),
                    cdn_delay=100.0, users=(("u", 1),))
    catalog = Catalog(num_files=2)
    pop = Popularity(np.array([0.5, 0.5]))
    caps = CacheCapacities(cloud=1, edge=(1,))
    best = brute_force_optimal(topo, catalog, pop, caps)
    assert best.contents == [{1}, {2}]


def test_bruteforce_matches_independent_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(15):
        topo, catalog, pop, caps = random_instance(rng, max_bs=2, max_files=5, max_cap=2)
        best = brute_force_optimal(topo, catalog, pop, caps)
        want_val, _ = enumerate_optimal(topo, catalog, pop, caps)
        assert utility(best, topo, pop) == pytest.approx(want_val, rel=1e-9)


def test_pcd_half_approximation_small_batch():
    rng = np.random.default_rng(37)
    for _ in range(25):
        topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=6, max_cap=2)
        opt = utility(brute_force_optimal(topo, catalog, pop, caps), topo, pop)
        greedy = pcd(topo, catalog, pop, caps).final_utility
        assert greedy >= 0.5 * opt - 1e-9
        assert greedy <= opt + 1e-9


# --------------------------------------------------------------- baselines

def test_top_popular_tiebreak():
    pop = Popularity(np.array([0.25, 0.25, 0.25, 0.25]))
    assert top_popular(pop, 2) == [1, 2]
    # against a sort keyed (-p, index), on tie-heavy weights with zeros
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n = int(rng.integers(1, 30))
        weights = rng.integers(0, 4, n).astype(float)
        weights[rng.integers(n)] += 1.0
        pop = Popularity.from_weights(weights)
        want = sorted(range(1, n + 1), key=lambda f: (-pop.probs[f - 1], f))
        k = int(rng.integers(-1, n + 2))
        assert top_popular(pop, k) == want[:max(0, k)]


def test_place_eo_canonical(canonical):
    topo, catalog, pop, caps = canonical
    placement = place_eo(topo, catalog, pop, caps)
    assert placement.contents == [set(), {1}, {1}]


def test_place_eo_everything_fits(canonical):
    topo, catalog, pop, _ = canonical
    caps = CacheCapacities(cloud=0, edge=(3, 3))
    placement = place_eo(topo, catalog, pop, caps)
    assert placement.contents[1] == {1, 2, 3} and placement.contents[2] == {1, 2, 3}


def test_place_ecnc_canonical(canonical):
    topo, catalog, pop, caps = canonical
    placement = place_ecnc(topo, catalog, pop, caps)
    assert placement.contents == [{1}, {1}, {1}]


def test_place_ecnc_cloud_covers_catalog(canonical):
    topo, catalog, pop, _ = canonical
    caps = CacheCapacities(cloud=3, edge=(1, 1))
    placement = place_ecnc(topo, catalog, pop, caps)
    assert placement.contents[0] == {1, 2, 3}


def test_place_exmpc_canonical(canonical):
    topo, catalog, pop, caps = canonical
    placement = place_exmpc(topo, catalog, pop, caps)
    assert placement.contents == [{2}, {1}, {1}]


def test_place_exmpc_cloud_takes_second_tier():
    rng = np.random.default_rng(2)
    topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=8, max_cap=2)
    placement = place_exmpc(topo, catalog, pop, caps)
    edge_files = set().union(*placement.contents[1:]) if topo.num_bs else set()
    assert placement.contents[0].isdisjoint(edge_files)
    # identical edges imply the cloud holds the next-ranked prefix
    sizes = [min(c, catalog.num_files) for c in caps.as_list()]
    if len(set(sizes[1:])) == 1:
        ranked = top_popular(pop, catalog.num_files)
        edge_rank = sizes[1]
        want = set(ranked[edge_rank:edge_rank + sizes[0]])
        assert placement.contents[0] == want


def _rank_reference(kind, catalog, pop, caps):
    """eo, ecnc or exmpc built copy by copy through ``Placement.add``:
    each edge takes the head of the ranking, and the cloud nothing (eo),
    the head (ecnc) or the ranks after the longest edge (exmpc)."""
    num_files = catalog.num_files
    sizes = [min(cap, num_files) for cap in caps.as_list()]
    ranked = top_popular(pop, num_files)
    placement = Placement(caps, num_files)
    for cache in range(1, len(sizes)):
        for f in ranked[:sizes[cache]]:
            placement.add(f, cache)
    start = {"eo": num_files, "ecnc": 0, "exmpc": max(sizes[1:])}[kind]
    for f in ranked[start:start + sizes[0]]:
        placement.add(f, 0)
    return placement


def test_rank_baselines_equal_per_file_reference():
    # unequal edges, capacities above the catalog and tie-heavy weights
    rng = np.random.default_rng(15)
    for _ in range(300):
        num_bs, num_files = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        weights = rng.integers(0, 4, num_files).astype(float)
        weights[rng.integers(num_files)] += 1.0
        pop = Popularity.from_weights(weights)
        catalog = Catalog(num_files=num_files)
        caps = CacheCapacities(cloud=int(rng.integers(0, num_files + 3)),
                               edge=tuple(rng.integers(0, num_files + 3, num_bs).tolist()))
        topo = build_paper_topology(num_bs, 0)
        for kind, place in (("eo", place_eo), ("ecnc", place_ecnc),
                            ("exmpc", place_exmpc)):
            placement = place(topo, catalog, pop, caps)
            assert placement.contents == _rank_reference(kind, catalog, pop, caps).contents
            assert all(type(f) is int for files in placement.contents for f in files)


def test_place_femtox_single_bs_equals_pcd():
    topo = Topology(num_bs=1, edge_delay=(12.0,), peer_delay=((0.0,),),
                    cdn_delay=90.0, users=(("u", 1), ("v", 1)))
    catalog = Catalog(num_files=5)
    pop = Popularity.from_weights(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    caps = CacheCapacities(cloud=2, edge=(2,))
    assert place_femtox(topo, catalog, pop, caps) == pcd(topo, catalog, pop, caps).placement


def test_place_femtox_canonical_weaker_than_pcd(canonical):
    topo, catalog, pop, caps = canonical
    femto = place_femtox(topo, catalog, pop, caps)
    assert femto.contents == [{1}, {2}, {2}]
    assert utility(femto, topo, pop) == pytest.approx(145.0)
    assert utility(femto, topo, pop) <= pcd(topo, catalog, pop, caps).final_utility


def test_place_femtox_zero_capacity(canonical):
    topo, catalog, pop, _ = canonical
    placement = place_femtox(topo, catalog, pop, CacheCapacities(cloud=0, edge=(0, 0)))
    assert placement.size() == 0


def test_baselines_feasible_and_below_optimum():
    rng = np.random.default_rng(41)
    for _ in range(10):
        topo, catalog, pop, caps = random_instance(rng, max_bs=2, max_files=5, max_cap=2)
        opt = utility(brute_force_optimal(topo, catalog, pop, caps), topo, pop)
        for builder in (place_eo, place_ecnc, place_exmpc, place_femtox):
            placement = builder(topo, catalog, pop, caps)
            assert placement.is_feasible()
            assert utility(placement, topo, pop) <= opt + 1e-9
