import copy
import importlib
import itertools
import pickle
from pathlib import Path

import numpy as np
import pytest

from octocache import (CacheCapacities, Catalog, LfuPolicy, LruPolicy,
                       Placement, Popularity, RequestEvent, RoutingMode, SourceKind,
                       Topology, build_paper_topology, make_policy, marginal_gain,
                       marginal_loss, pcd, route_request, total_expected_delay,
                       utility, zipf_popularity)
from octocache.placement import place_ecnc, place_eo, place_exmpc
from octocache.routing import UtilityEvaluator
from octocache.topology import uturn_peer_delays

from conftest import (random_feasible_placement, random_instance,
                      reference_route_cost, reference_utility)


def pcd_canonical_placement(capacities):
    placement = Placement(capacities, 3)
    placement.add(1, 0)
    placement.add(2, 1)
    placement.add(3, 2)
    return placement


# ---------------------------------------------------------------- routing

def test_route_local_hit_costs_zero(canonical):
    topo, _, _, caps = canonical
    placement = Placement(caps, 3)
    placement.add(2, 1)
    src = route_request(placement, topo, 1, 2)
    assert src.kind is SourceKind.LOCAL_EDGE and src.delay_cost == 0.0
    assert src.cache == 1


def test_route_cloud_only_copy(canonical):
    topo, _, _, caps = canonical
    placement = Placement(caps, 3)
    placement.add(1, 0)
    src = route_request(placement, topo, 1, 1)
    assert src.kind is SourceKind.CLOUD and src.delay_cost == 10.0


def test_route_prefers_cheaper_cloud_over_neighbor(canonical):
    # file in both the cloud (cost 10 from BS 1) and BS 2 (cost 30)
    topo, _, _, caps = canonical
    placement = Placement(caps, 3)
    placement.add(1, 0)
    placement.add(1, 2)
    src = route_request(placement, topo, 1, 1)
    assert src.kind is SourceKind.CLOUD and src.delay_cost == 10.0


def test_route_uncached_goes_to_cdn(canonical):
    topo, _, _, caps = canonical
    src = route_request(Placement(caps, 3), topo, 2, 3)
    assert src.kind is SourceKind.CDN and src.delay_cost == 100.0
    assert src.cache is None


def test_route_invalid_arguments(canonical):
    topo, _, _, caps = canonical
    placement = Placement(caps, 3)
    with pytest.raises(ValueError):
        route_request(placement, topo, 0, 1)
    with pytest.raises(ValueError):
        route_request(placement, topo, 3, 1)
    with pytest.raises(ValueError):
        route_request(placement, topo, 1, 4)


def _three_bs_topology():
    delays = (10.0, 20.0, 30.0)
    return Topology(num_bs=3, edge_delay=delays, peer_delay=uturn_peer_delays(delays),
                    cdn_delay=100.0, users={"u1": 1, "u2": 2, "u3": 3})


_TWO_BS_CAPS = CacheCapacities(cloud=1, edge=(1, 1))
_THREE_BS_CAPS = CacheCapacities(cloud=1, edge=(1, 1, 1))
_UNIFORM_4 = Popularity.from_weights([1.0] * 4)


@pytest.mark.parametrize("call, message", [
    (lambda topo: total_expected_delay(Placement(_TWO_BS_CAPS, 4, [{1}, {2}, {3}]),
                                       topo, _UNIFORM_4),
     "placement has 3 caches; 3 BSs need 4"),
    (lambda topo: total_expected_delay(Placement(_THREE_BS_CAPS, 4), topo,
                                       Popularity.from_weights([1.0] * 5)),
     "popularity of 5 files for a 4-file catalog"),
    (lambda topo: route_request(Placement(_TWO_BS_CAPS, 4, [{1}, {2}, {3}]), topo, 3, 4),
     "placement has 3 caches; 3 BSs need 4"),
    (lambda topo: LfuPolicy(topo, _TWO_BS_CAPS, 4).serve(3, 4),
     "placement has 3 caches; 3 BSs need 4"),
    (lambda topo: LruPolicy(topo, _TWO_BS_CAPS, 4).serve(3, 4),
     "placement has 3 caches; 3 BSs need 4"),
    (lambda topo: make_policy("eo", topo, Catalog(num_files=4), _UNIFORM_4,
                              _TWO_BS_CAPS, topo.users),
     "placement has 3 caches; 3 BSs need 4"),
    *((lambda topo, name=name: make_policy(name, topo, Catalog(num_files=4),
                                           zipf_popularity(3, 1.0), _THREE_BS_CAPS,
                                           topo.users),
       "popularity of 3 files for a 4-file catalog") for name in ("eo", "ecnc", "exmpc")),
    *((lambda topo, place=place: place(topo, Catalog(num_files=4), _UNIFORM_4, _TWO_BS_CAPS),
       "placement has 3 caches; 3 BSs need 4") for place in (place_eo, place_ecnc, place_exmpc)),
], ids=["delay-placement", "delay-popularity", "route", "lfu", "lru", "eo",
        "eo-popularity", "ecnc-popularity", "exmpc-popularity",
        "place-eo", "place-ecnc", "place-exmpc"])
def test_instance_mismatch_is_a_value_error_naming_it(call, message):
    # a placement or capacities for 2 BSs on a 3-BS topology, or a popularity
    # for another catalog, is rejected before any routing or arithmetic
    with pytest.raises(ValueError, match=message):
        call(_three_bs_topology())


def test_route_request_shares_one_source_table_per_network(canonical):
    # the sources are built once per network delays and routing mode, so
    # every call, also on another topology object of the same network,
    # returns the same Source object
    topo, _, _, caps = canonical
    placement = Placement(caps, 3)
    placement.add(1, 0)
    first = route_request(placement, topo, 1, 1)
    assert first.kind is SourceKind.CLOUD
    assert route_request(placement, topo, 1, 1) is first
    assert route_request(placement, topo.with_users({"v": 2}), 1, 1) is first


def test_route_modes_restrict_sources(canonical):
    topo, _, _, caps = canonical
    placement = Placement(caps, 3)
    placement.add(1, 0)
    placement.add(2, 2)
    assert route_request(placement, topo, 1, 1, RoutingMode.EDGE_ONLY).kind is SourceKind.CDN
    assert route_request(placement, topo, 1, 1, RoutingMode.EDGE_CLOUD).kind is SourceKind.CLOUD
    assert route_request(placement, topo, 1, 2, RoutingMode.EDGE_CLOUD).kind is SourceKind.CDN
    assert route_request(placement, topo, 1, 2, RoutingMode.FULL).kind is SourceKind.NEIGHBOR_EDGE


def test_route_is_min_over_explicit_sources():
    rng = np.random.default_rng(42)
    for _ in range(60):
        topo, catalog, _, caps = random_instance(rng, max_bs=4, max_files=6, max_cap=3)
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        for mode, name in ((RoutingMode.FULL, "full"),
                           (RoutingMode.EDGE_CLOUD, "edge-cloud"),
                           (RoutingMode.EDGE_ONLY, "edge-only")):
            for bs in range(1, topo.num_bs + 1):
                for f in range(1, catalog.num_files + 1):
                    got = route_request(placement, topo, bs, f, mode)
                    want = reference_route_cost(topo, placement.contents, bs, f, name)
                    assert got.delay_cost == pytest.approx(want)
                    assert (got.delay_cost == 0.0) == (got.kind is SourceKind.LOCAL_EDGE)


def test_local_hit_dominates():
    rng = np.random.default_rng(7)
    for _ in range(30):
        topo, catalog, _, caps = random_instance(rng, max_cap=3)
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        for bs in range(1, topo.num_bs + 1):
            for f in placement.contents[bs]:
                assert route_request(placement, topo, bs, f).kind is SourceKind.LOCAL_EDGE


# ----------------------------------------------------------------- delays

def user_expected_delay(placement, topo, pop, user):
    """Expected delay of one user: the total over a topology of that user
    alone."""
    alone = topo.with_users({user: topo.home_bs(user)})
    return total_expected_delay(placement, alone, pop)


def test_user_delay_all_local_is_zero(canonical):
    topo, _, pop, _ = canonical
    caps = CacheCapacities(cloud=0, edge=(3, 3))
    placement = Placement(caps, 3)
    for f in (1, 2, 3):
        placement.add(f, 1)
        placement.add(f, 2)
    assert user_expected_delay(placement, topo, pop, "u1") == 0.0
    assert user_expected_delay(placement, topo, pop, "u2") == 0.0


def test_user_delay_empty_placement_is_cdn(canonical):
    topo, _, pop, caps = canonical
    assert user_expected_delay(Placement(caps, 3), topo, pop, "u1") == pytest.approx(100.0)


def test_user_delay_canonical_value(canonical):
    # 0.5 * d_1 + 0.3 * 0 + 0.2 * d_12 = 5 + 0 + 6
    topo, _, pop, caps = canonical
    placement = pcd_canonical_placement(caps)
    assert user_expected_delay(placement, topo, pop, "u1") == pytest.approx(11.0)
    assert user_expected_delay(placement, topo, pop, "u2") == pytest.approx(19.0)
    with pytest.raises(ValueError):
        user_expected_delay(placement, topo, pop, "ghost")


def test_total_delay(canonical):
    topo, _, pop, caps = canonical
    assert total_expected_delay(Placement(caps, 3), topo, pop) == pytest.approx(200.0)
    placement = pcd_canonical_placement(caps)
    assert total_expected_delay(placement, topo, pop) == pytest.approx(30.0)
    assert total_expected_delay(placement, topo, pop) >= 0.0


# ---------------------------------------------------------------- utility

def test_utility_empty_and_saturated(canonical):
    topo, _, pop, _ = canonical
    caps = CacheCapacities(cloud=0, edge=(3, 3))
    assert utility(Placement(caps, 3), topo, pop) == 0.0
    placement = Placement(caps, 3)
    for f in (1, 2, 3):
        placement.add(f, 1)
        placement.add(f, 2)
    assert utility(placement, topo, pop) == pytest.approx(200.0)


def test_utility_canonical(canonical):
    topo, _, pop, caps = canonical
    placement = pcd_canonical_placement(caps)
    # independent oracle and the duality identity agree on 170
    assert reference_utility(topo, pop, placement.contents) == pytest.approx(170.0)
    assert utility(placement, topo, pop) == pytest.approx(170.0)
    assert utility(placement, topo, pop) == pytest.approx(
        2 * 100.0 - total_expected_delay(placement, topo, pop))


def test_duality_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        topo, catalog, pop, caps = random_instance(rng, max_bs=4, max_files=10, max_cap=3)
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        u = utility(placement, topo, pop)
        d = total_expected_delay(placement, topo, pop)
        rhs = topo.user_count() * topo.cdn_delay
        assert u + d == pytest.approx(rhs, rel=1e-9)


# -------------------------------------------------------------- marginals

def test_marginal_gain_examples(canonical):
    topo, _, pop, caps = canonical
    empty = Placement(caps, 3)
    assert marginal_gain(empty, (1, 0), topo, pop) == pytest.approx(85.0)
    one = Placement(caps, 3)
    one.add(1, 0)
    assert marginal_gain(one, (1, 1), topo, pop) == pytest.approx(5.0)


def test_marginal_gain_zero_when_everywhere_local(canonical):
    topo, _, pop, _ = canonical
    caps = CacheCapacities(cloud=3, edge=(3, 3))
    placement = Placement(caps, 3)
    for f in (1, 2, 3):
        placement.add(f, 1)
        placement.add(f, 2)
    assert marginal_gain(placement, (1, 0), topo, pop) == 0.0


def test_marginal_gain_errors(canonical):
    topo, _, pop, caps = canonical
    placement = pcd_canonical_placement(caps)
    with pytest.raises(ValueError):  # already placed
        marginal_gain(placement, (1, 0), topo, pop)
    with pytest.raises(ValueError):  # cache full
        marginal_gain(placement, (2, 0), topo, pop)


def test_marginal_loss_examples(canonical):
    topo, _, pop, caps = canonical
    placement = pcd_canonical_placement(caps)
    assert marginal_loss(placement, (2, 1), topo, pop) == pytest.approx(51.0)
    with pytest.raises(ValueError):
        marginal_loss(placement, (1, 1), topo, pop)


def test_marginal_loss_zero_for_shadowed_duplicate(canonical):
    # f1 in the cloud and in C_2: for u2 the local copy wins, for u1 the
    # cloud wins, so removing the C_2 copy only loses u2's local bonus;
    # removing a fully shadowed copy loses nothing
    topo, _, pop, _ = canonical
    caps = CacheCapacities(cloud=2, edge=(2, 2))
    placement = Placement(caps, 3)
    placement.add(1, 1)
    placement.add(1, 0)  # cloud copy shadowed for u1 (local beats cloud)...
    placement.add(1, 2)  # ...and for u2 once the local copy exists
    assert marginal_loss(placement, (1, 0), topo, pop) == 0.0


def test_loss_equals_gain_after_removal():
    rng = np.random.default_rng(23)
    for _ in range(80):
        topo, catalog, pop, caps = random_instance(rng, max_cap=3)
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        for cache, file in np.argwhere(placement.mask).tolist():
            loss = marginal_loss(placement, (file, cache), topo, pop)
            smaller = placement.copy()
            smaller.remove(file, cache)
            gain = marginal_gain(smaller, (file, cache), topo, pop)
            assert loss == pytest.approx(gain, abs=1e-12)


def test_monotonicity_and_submodularity_random():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 150:
        topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=8, max_cap=2)
        big = random_feasible_placement(rng, caps, catalog.num_files)
        small = Placement(caps, catalog.num_files)
        for cache, file in np.argwhere(big.mask).tolist():
            if rng.random() < 0.5:
                small.add(file, cache)
        candidates = [(f, c) for c in range(big.num_caches)
                      for f in range(1, catalog.num_files + 1)
                      if not big.contains(f, c) and not big.is_full(c)]
        if not candidates:
            continue
        file, cache = candidates[int(rng.integers(len(candidates)))]
        g_small = marginal_gain(small, (file, cache), topo, pop)
        g_big = marginal_gain(big, (file, cache), topo, pop)
        assert g_big >= -1e-9
        assert g_small >= g_big - 1e-9
        checked += 1


# ------------------------------------------------- evaluator bookkeeping

def _mutate(rng, ev, num_files, bulk=False):
    """One random add or remove on the evaluator, when one is possible. With
    ``bulk``, half the adds are one ``add_copies`` of random open copies."""
    elements = np.argwhere(ev.placement.mask).tolist()
    if elements and rng.random() < 0.4:
        cache, file = elements[int(rng.integers(len(elements)))]
        ev.remove(file, cache)
        return
    cands = [(f, c) for c in range(ev.placement.num_caches)
             for f in range(1, num_files + 1)
             if not ev.placement.contains(f, c)
             and not ev.placement.is_full(c)]
    if not cands:
        return
    if not bulk or rng.random() < 0.5:
        ev.add(*cands[int(rng.integers(len(cands)))])
        return
    room = [cap - ev.placement.cache_size(c)
            for c, cap in enumerate(ev.placement.capacities.as_list())]
    batch = []
    for i in rng.permutation(len(cands))[:int(rng.integers(1, len(cands) + 1))]:
        file, cache = cands[i]
        if room[cache]:
            room[cache] -= 1
            batch.append((file, cache))
    files, caches = np.array(batch).T
    ev.add_copies(files, caches)


def _assert_marginals_match_reference(ev, topo, pop, mode):
    """Each open copy's gain, each copy's loss, and the min-loss copy,
    against utility differences from the independent reference oracle."""
    contents = ev.placement.contents
    total = reference_utility(topo, pop, contents, mode.value)
    tol = 1e-9 * max(total, 1.0)
    for file in range(1, ev.placement.num_files + 1):
        for cache in range(ev.placement.num_caches):
            if ev.placement.contains(file, cache):
                assert ev._gain_table()[file - 1, cache] == 0.0
                continue
            if ev.placement.is_full(cache):
                continue
            larger = [set(c) for c in contents]
            larger[cache].add(file)
            want = reference_utility(topo, pop, larger, mode.value) - total
            assert ev.marginal_gain(file, cache) == pytest.approx(want, abs=tol)
    ref = {}
    for cache, file in np.argwhere(ev.placement.mask).tolist():
        smaller = [set(c) for c in contents]
        smaller[cache].remove(file)
        ref[file, cache] = total - reference_utility(topo, pop, smaller, mode.value)
        assert ev.marginal_loss(file, cache) == pytest.approx(ref[file, cache], abs=tol)
    got = ev.min_loss_element()
    if not ref:
        assert got is None
        return
    least = min(ref.values())
    assert got[0] == pytest.approx(least, abs=tol)
    assert got[1:] == min(k for k, v in ref.items() if v <= least + tol)


def test_evaluator_matches_scratch_after_mutations():
    # codes, best1, the gain and loss tables and the kept min-loss copy, across
    # arbitrary add/remove sequences, must equal, bit for bit, those of an
    # evaluator built from scratch
    rng = np.random.default_rng(31)
    for mode in RoutingMode:
        for _ in range(40):
            topo, catalog, pop, caps = random_instance(rng, max_bs=4, max_files=8,
                                                       max_cap=3)
            ev = UtilityEvaluator(topo, pop, Placement(caps, catalog.num_files),
                                  mode=mode)
            for step in range(40):
                _mutate(rng, ev, catalog.num_files, bulk=True)
                fresh = UtilityEvaluator(topo, pop, ev.placement, mode=mode)
                assert np.array_equal(ev.mask, fresh.mask)
                assert np.array_equal(ev.codes, fresh.codes)
                assert np.array_equal(ev.best1, fresh.best1)
                assert np.array_equal(ev.best1, (ev.t_table[:, :, None] * ev.mask).max(axis=1))
                assert ev.utility() == pytest.approx(reference_utility(
                    topo, pop, ev.placement.contents, mode.value), rel=1e-9)
                assert ev.min_loss_element() == fresh.min_loss_element()
                if step % 3 == 2:  # let stale gain rows pile up between reads
                    assert np.array_equal(ev._loss_table(), fresh._loss_table())
                    assert np.array_equal(ev._gain_table(), fresh._gain_table())


_BAD_BATCHES = [
    ([3, 1], [1, 0]),   # file 1 is already in the cloud
    ([3, 5], [1, 1]),   # file 5 is outside 1..4
    ([3, 3], [2, 2]),   # the same copy twice
    ([3, 4], [0, 0]),   # the cloud holds 2 of 3 and gets 2 more
    ([3, 2], [1, 3]),   # cache 3 does not exist
]


def _batch_target():
    """The placement both bad-batch tests write to: cloud {1, 2}, edge 1 {1}."""
    return Placement(CacheCapacities(cloud=3, edge=(2, 2)), 4, [{1, 2}, {1}, set()])


@pytest.mark.parametrize("files, caches", _BAD_BATCHES)
def test_add_copies_rejects_a_bad_copy_before_any_change(canonical, files, caches):
    topo, _, _, _ = canonical
    pop = Popularity.from_weights([4.0, 3.0, 2.0, 1.0])
    ev = UtilityEvaluator(topo, pop, _batch_target())
    ev._loss_table()
    before = (ev.placement.copy(), ev.mask.copy(), ev.best1.copy(),
              ev._gain_table().copy(), ev._loss_table().copy(), ev.min_loss_element())
    with pytest.raises(ValueError):
        ev.add_copies(np.array(files), np.array(caches))
    after = (ev.placement, ev.mask, ev.best1, ev._gain_table(), ev._loss_table(),
             ev.min_loss_element())
    assert before[0] == after[0] and before[5] == after[5]
    for old, new in zip(before[1:5], after[1:5]):
        assert np.array_equal(old, new)
    assert not ev._gains_stale.any() and not ev._losses_stale.any()


@pytest.mark.parametrize("files, caches", _BAD_BATCHES)
def test_placement_add_copies_rejects_a_bad_copy_before_any_change(files, caches):
    # the placement's own batch write makes the checks the evaluator relies on
    placement = _batch_target()
    with pytest.raises(ValueError):
        placement._add_copies(np.array(files), np.array(caches))
    assert placement == _batch_target()
    placement._add_copies(np.array([3, 4, 2]), np.array([0, 1, 2]))
    assert placement.contents == [{1, 2, 3}, {1, 4}, {2}]


@pytest.mark.parametrize("files, caches, message", [
    ([3, 3], [0, 0], "given twice"),  # one distinct copy fits the cloud's room
    ([4, 3, 4], [2, 2, 2], "given twice"),
    ([3, 4, 2], [0, 0, 2], "overflow"),
], ids=["duplicate-in-room", "duplicate-and-one", "overflow"])
def test_placement_add_copies_names_the_broken_rule(files, caches, message):
    # a copy given twice counts once against the room, so it is reported as
    # given twice, before any change, even where two copies would overflow
    placement = _batch_target()
    with pytest.raises(ValueError, match=message):
        placement._add_copies(np.array(files), np.array(caches))
    assert placement == _batch_target()


def test_an_empty_batch_changes_nothing(canonical):
    # a swap round that accepts nothing hands both levels an empty batch
    topo, _, _, _ = canonical
    empty = np.array([], dtype=np.intp)
    placement = _batch_target()
    placement._add_copies(empty, empty)
    assert placement == _batch_target()
    ev = UtilityEvaluator(topo, Popularity.from_weights([4.0, 3.0, 2.0, 1.0]), placement)
    before = (ev.best1.copy(), ev._gain_table().copy(), ev._loss_table().copy(),
              ev.min_loss_element())
    ev.add_copies(empty, empty)
    assert not (ev._gains_stale.any() or ev._losses_stale.any() or ev._min_loss_stale)
    assert ev.placement == placement and ev.min_loss_element() == before[3]
    for old, new in zip(before[:3], (ev.best1, ev._gain_table(), ev._loss_table())):
        assert np.array_equal(old, new)


def test_mask_is_the_placement_itself():
    # each read of mask is the one stored array, and a copy's is its own
    placement = _batch_target()
    assert placement.mask is placement.mask
    for twin in (placement.copy(), copy.deepcopy(placement)):
        assert not np.shares_memory(twin.mask, placement.mask)
        assert twin == placement


def test_evaluator_min_loss_matches_scan():
    rng = np.random.default_rng(13)
    for _ in range(40):
        topo, catalog, pop, caps = random_instance(rng, max_cap=3)
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        ev = UtilityEvaluator(topo, pop, placement)
        _assert_marginals_match_reference(ev, topo, pop, RoutingMode.FULL)


def _tied_topologies():
    """Equal fronthaul delays give equal U-turn costs, so neighbour copies tie
    for a user's best t-value; with users at BS 1 only, most copies are
    shadowed and tie at zero loss across files and caches."""
    for num_bs, homes in ((2, "all"), (3, "all"), (4, "all"), (3, "one"), (4, "one")):
        users = {f"u{b}": b for b in range(1, num_bs + 1) if homes == "all" or b == 1}
        yield Topology(num_bs=num_bs, edge_delay=(15.0,) * num_bs,
                       peer_delay=uturn_peer_delays((15.0,) * num_bs),
                       cdn_delay=80.0, users=users)


@pytest.mark.parametrize("mode", list(RoutingMode))
def test_evaluator_losses_with_tied_t_values(mode):
    rng = np.random.default_rng(41)
    for topo in _tied_topologies():
        pop = Popularity.from_weights(rng.random(6) + 0.01)
        caps = CacheCapacities(cloud=2, edge=(3,) * topo.num_bs)
        ev = UtilityEvaluator(topo, pop, Placement(caps, 6), mode=mode)
        for _ in range(60):
            _mutate(rng, ev, 6)
            _assert_marginals_match_reference(ev, topo, pop, mode)


def _tables_row_by_row(ev):
    """The gain and loss tables, each row built alone from its own file's
    mask column: the rival is the file's ``best1`` column for a gain and its
    holders' second-best t-value for a loss, and the BSs are added one at a
    time, in order."""
    gains = np.empty((ev.placement.num_files, ev.num_bs + 1))
    losses = np.empty_like(gains)
    for j in range(ev.placement.num_files):
        second = np.sort(ev.t_table * ev.mask[:, j], axis=1)[:, -2]
        for table, rival in ((gains, ev.best1[:, j]), (losses, second)):
            drop = np.maximum(ev.t_table - rival[:, None], 0.0) * ev.counts[:, None]
            total = drop[0]
            for b in range(1, ev.num_bs):
                total = total + drop[b]
            table[j] = ev.probs[j] * total
    return gains, np.where(ev.mask.T, losses, np.inf)


def _assert_tables_equal_rows_built_alone(ev):
    gains, losses = _tables_row_by_row(ev)
    assert np.array_equal(ev._gain_table(), gains)
    assert np.array_equal(ev._loss_table(), losses)


def _patterned_evaluator(rng, num_bs, patterns, pattern_of, mode):
    """An evaluator whose file ``j + 1`` is held by the caches of column
    ``patterns[:, pattern_of[j]]``, every cache full, on a paper topology
    with 1-2 users per BS and random popularity."""
    held = patterns[:, pattern_of]
    contents = [(np.flatnonzero(row) + 1).tolist() for row in held]
    caps = CacheCapacities(cloud=len(contents[0]), edge=tuple(map(len, contents[1:])))
    users = {f"u{b}-{i}": b for b in range(1, num_bs + 1)
             for i in range(int(rng.integers(1, 3)))}
    topo = build_paper_topology(num_bs, int(rng.integers(0, 2**31))).with_users(users)
    pop = Popularity.from_weights(rng.random(len(pattern_of)) + 0.01)
    return UtilityEvaluator(topo, pop, Placement(caps, len(pattern_of), contents),
                            mode=mode)


@pytest.mark.parametrize("mode", list(RoutingMode))
def test_table_rows_equal_rows_built_alone(mode):
    # _marginals reads one table row per holder set for every file holding
    # that set; each row must equal, bit for bit, the row that file's own
    # column gives
    rng = np.random.default_rng(57)
    for _ in range(8):  # many files on a few holder patterns
        num_bs, num_files = int(rng.integers(2, 7)), int(rng.integers(40, 120))
        patterns = rng.random((num_bs + 1, int(rng.integers(1, 6)))) < 0.4
        ev = _patterned_evaluator(rng, num_bs, patterns,
                                  rng.integers(0, patterns.shape[1], num_files), mode)
        _assert_tables_equal_rows_built_alone(ev)
        for _ in range(5):
            _mutate(rng, ev, num_files, bulk=True)
            _assert_tables_equal_rows_built_alone(ev)
    for topo in _tied_topologies():
        pop = Popularity.from_weights(rng.random(6) + 0.01)
        caps = CacheCapacities(cloud=2, edge=(3,) * topo.num_bs)
        ev = UtilityEvaluator(topo, pop, Placement(caps, 6), mode=mode)
        for _ in range(20):
            _mutate(rng, ev, 6, bulk=True)
            _assert_tables_equal_rows_built_alone(ev)
    # 11 BSs: files 2 and 4 differ from files 1 and 3 only in caches 10 and
    # 11, the top bits of a holder set's row number; a local copy is worth
    # most to that BS's users, so a row number that dropped those caches
    # would give files 2 and 4 the wrong rows
    patterns = rng.random((12, 4)) < 0.3
    patterns[:, 1] = patterns[:, 0]
    patterns[:, 3] = patterns[:, 2]
    patterns[10, 0] = patterns[11, 2] = False
    patterns[10, 1] = patterns[11, 3] = True
    ev = _patterned_evaluator(rng, 11, patterns, np.array([0, 1, 2, 3, 0, 1, 2, 3]), mode)
    _assert_tables_equal_rows_built_alone(ev)
    # 3 BSs: file j + 1 is held by holder set j, so all 16 rows of each
    # table are read
    every_set = (np.arange(16) & (1 << np.arange(4))[:, None]).astype(bool)
    ev = _patterned_evaluator(rng, 3, every_set, rng.permutation(16), mode)
    _assert_tables_equal_rows_built_alone(ev)


def _rejection(call, *args):
    """The message of the ``ValueError`` that ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_evaluator_rejects_a_copy_as_its_placement_does(canonical):
    # a marginal gain checks what add checks and a marginal loss what remove
    # checks, with the same message where more than one check fails
    topo, _, pop, _ = canonical
    placement = Placement(CacheCapacities(cloud=2, edge=(1, 1)), 3, [{1}, {2}, set()])
    ev = UtilityEvaluator(topo, pop, placement)
    outcomes = set()
    for file in range(5):
        for cache in range(-1, 4):
            for move, marginal in ((Placement.add, ev.marginal_gain),
                                   (Placement.remove, ev.marginal_loss)):
                want = _rejection(move, placement.copy(), file, cache)
                assert _rejection(marginal, file, cache) == want
                outcomes.add(want.split()[0] if want else want)
    assert ev.placement == placement
    assert outcomes == {None, "file", "cache"}


@pytest.mark.parametrize("contents, message", [
    ([{1, 2}, {0, 3}, {4}], "file index 0 outside 1..4"),
    ([{1}, {2, 5}, {3, 4}], "file index 5 outside 1..4"),
    ([{1, 2, 3}, {1}, {2}], "cache 0 over capacity: 3 > 2"),
    ([{1}, {2}], "expected 3 cache sets, got 2"),
], ids=["file-0", "file-5", "cloud-over", "two-sets"])
def test_placement_rejects_bad_contents(contents, message):
    with pytest.raises(ValueError, match=message):
        Placement(CacheCapacities(cloud=2, edge=(2, 2)), 4, contents)


@pytest.mark.parametrize("call, message", [
    (lambda topo, placement: route_request(placement, topo, "1", 1),
     "^bs index must be an integer, got '1'$"),
    (lambda topo, placement: route_request(placement, topo, 1.0, 1),
     "^bs index must be an integer, got 1.0$"),
    (lambda topo, placement: placement.add(1.5, 0),
     "^file index must be an integer, got 1.5$"),
    (lambda topo, placement: LfuPolicy(topo, placement.capacities, 3).on_request(
        RequestEvent(time=0.0, user_id="u1", file_id=2.0)),
     "^file index must be an integer, got 2.0$"),
], ids=["bs-text", "bs-float", "add-float", "on-request-float"])
def test_a_non_integer_index_is_not_called_out_of_range(canonical, call, message):
    topo, _, _, caps = canonical
    with pytest.raises(ValueError, match=message):
        call(topo, Placement(caps, 3))


def test_is_feasible_sees_a_file_out_of_range():
    # the mask has no column for a file past F; column 0 and a row over its
    # capacity are what a write through the mask can break
    placement = Placement(CacheCapacities(cloud=2, edge=(2, 2)), 4, [{1, 4}, {2}, {3, 4}])
    assert placement.is_feasible()
    file_0 = placement.copy()
    file_0.mask[1, 0] = True
    assert not file_0.is_feasible()
    overfull = placement.copy()
    overfull.mask[1, 1] = True
    assert overfull.cache_size(1) == 2 and overfull.is_feasible()
    overfull.mask[1, 3] = True
    assert overfull.cache_size(1) == 3 and not overfull.is_feasible()
    assert placement.is_feasible()


@pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                       lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
def test_a_copy_reads_and_writes_its_own_bytes(canonical, duplicate):
    # a deep-copied or unpickled placement, alone or inside an evaluator, sees
    # a write through its mask in contains, cache_size and contents, and an
    # add in its mask; the original stays as it was. The evaluator's mask
    # starts at file 1, the placement's at file 0.
    topo, _, pop, _ = canonical
    placement = Placement(CacheCapacities(cloud=2, edge=(2, 2)), 3, [{1}, {2}, set()])
    for original, first in ((placement, 0), (UtilityEvaluator(topo, pop, placement), 1)):
        twin = duplicate(original)
        copied = getattr(twin, "placement", twin)
        assert np.shares_memory(twin.mask, copied.mask)
        twin.mask[0, 3 - first] = True
        assert copied.contains(3, 0) and copied.cache_size(0) == 2
        assert copied.contents == [{1, 3}, {2}, set()]
        copied.add(3, 2)
        assert twin.mask[2, 3 - first] and copied.size() == 4
        assert getattr(original, "placement", original) == placement
        assert original.mask.sum() == 2
    assert placement.contents == [{1}, {2}, set()]


def test_benchmark_reads_of_a_placement_agree_with_its_mask(monkeypatch):
    # perfbench's traced cells read contents, size, cache_size and
    # is_feasible, on a greedy placement and on lfu's after its replay
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    checks, replay = (importlib.import_module(name) for name in ("checks", "replay"))
    topo = build_paper_topology(3, 5).with_users({f"u{i}": i % 3 + 1 for i in range(9)})
    catalog, pop = Catalog(num_files=12), zipf_popularity(12, 0.8)
    caps = CacheCapacities(cloud=4, edge=(2, 3, 2))
    lfu = LfuPolicy(topo, caps, 12)
    rng = np.random.default_rng(5)
    lfu.replay(rng.integers(1, 4, 2000), rng.integers(1, 13, 2000))
    for placement in (pcd(topo, catalog, pop, caps).placement, lfu.placement):
        assert checks.check_placement(placement, topo, pop, caps, 12) == []
        mask = placement.mask
        assert replay.placement_composition(placement) == {
            "copies": mask.sum(), "copies_per_cache": mask.sum(axis=1).tolist(),
            "shadowed_cloud_copies": (mask[0] & mask[1:].all(axis=0)).sum()}


# ---------------------------------------------------------------- matroid

def test_feasibility_downward_closed():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, catalog, _, caps = random_instance(rng, max_cap=2)
        placement = random_feasible_placement(rng, caps, catalog.num_files)
        assert placement.is_feasible()
        for cache, file in np.argwhere(placement.mask).tolist():
            sub = placement.copy()
            sub.remove(file, cache)
            assert sub.is_feasible()


def test_feasibility_exchange_property():
    # partition matroid: a smaller independent set can always be augmented
    # from a larger one
    caps = CacheCapacities(cloud=1, edge=(1, 2))
    num_files = 2
    ground = [(f, c) for c in range(3) for f in (1, 2)]

    def build(subset):
        placement = Placement(caps, num_files)
        try:
            for f, c in subset:
                placement.add(f, c)
        except ValueError:
            return None
        return placement

    independents = []
    for r in range(len(ground) + 1):
        for subset in itertools.combinations(ground, r):
            if build(subset) is not None:
                independents.append(set(subset))
    for a in independents:
        for b in independents:
            if len(a) < len(b):
                assert any(build(a | {e}) is not None for e in b - a)


# -------------------------------------------------------------- placement

def test_placement_capacity_enforcement(canonical):
    _, _, _, caps = canonical
    placement = Placement(caps, 3)
    placement.add(1, 0)
    with pytest.raises(ValueError):
        placement.add(2, 0)  # full
    with pytest.raises(ValueError):
        placement.add(1, 0)  # duplicate
    with pytest.raises(ValueError):
        placement.add(9, 1)  # unknown file
    with pytest.raises(ValueError):
        placement.remove(2, 1)  # absent
