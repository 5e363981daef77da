import copy
import pickle

import numpy as np
import pytest

import octocache.placement
import octocache.policies
from octocache import (POLICY_NAMES, CacheCapacities, Catalog, LfuPolicy, LruPolicy,
                       Placement, OctopusPolicy, Popularity, RequestEvent,
                       RoutingMode, SourceKind, Topology, build_paper_topology,
                       make_policy, pcd, route_request, utility)

from octocache.placement import _rcr_triggers
from octocache.policies import Policy, _first_marked, _lfu_victim
from octocache.routing import UtilityEvaluator, _serving_table

from conftest import marginal_tables, random_feasible_placement, random_instance


def single_bs_topology():
    return Topology(num_bs=1, edge_delay=(10.0,), peer_delay=((0.0,),),
                    cdn_delay=100.0, users=(("u", 1),))


def req(i, user, file):
    return RequestEvent(time=float(i), user_id=user, file_id=file)


def replay(policy, files, user="u"):
    return [policy.on_request(req(i, user, f)).kind.value
            for i, f in enumerate(files)]


# --------------------------------------------------------------------- lru

def test_lru_size_one_thrashes():
    # f1, f2, f1 with room for a single file everywhere: f2 evicts f1, so
    # every request goes to the CDN
    topo = single_bs_topology()
    policy = LruPolicy(topo, CacheCapacities(cloud=1, edge=(1,)), 3)
    assert replay(policy, [1, 2, 1]) == ["cdn", "cdn", "cdn"]


def test_lru_hit_refreshes_recency():
    topo = single_bs_topology()
    policy = LruPolicy(topo, CacheCapacities(cloud=2, edge=(2,)), 3)
    # f1, f2 resident; touching f1 makes f2 the eviction victim for f3
    assert replay(policy, [1, 2, 1, 3]) == ["cdn", "cdn", "local", "cdn"]
    assert policy.placement.contents[1] == {1, 3}


def test_lru_no_second_miss_when_cache_covers_catalog():
    topo = single_bs_topology()
    policy = LruPolicy(topo, CacheCapacities(cloud=0, edge=(3,)), 3)
    rng = np.random.default_rng(0)
    seen = set()
    for i, f in enumerate(rng.integers(1, 4, size=60)):
        src = policy.on_request(req(i, "u", int(f)))
        if int(f) in seen:
            assert src.kind is not SourceKind.CDN
        seen.add(int(f))


# --------------------------------------------------------------------- lfu

def test_lfu_eviction_needs_strictly_higher_count():
    # f1 twice, then f2 three times: f2 displaces f1 only once its observed
    # count (3) strictly exceeds f1's (2)
    topo = single_bs_topology()
    policy = LfuPolicy(topo, CacheCapacities(cloud=1, edge=(1,)), 3)
    sources = replay(policy, [1, 1, 2, 2, 2])
    assert sources == ["cdn", "local", "cdn", "cdn", "cdn"]
    assert policy.placement.contents[1] == {2}
    # one more f2 request is now a local hit
    assert policy.on_request(req(9, "u", 2)).kind is SourceKind.LOCAL_EDGE


def test_lfu_counters_audit_against_trace():
    topo = Topology(num_bs=2, edge_delay=(10.0, 20.0),
                    peer_delay=((0.0, 30.0), (30.0, 0.0)), cdn_delay=100.0,
                    users={"a": 1, "b": 2})
    policy = LfuPolicy(topo, CacheCapacities(cloud=2, edge=(1, 1)), 4)
    rng = np.random.default_rng(5)
    events = [(("a", "b")[int(rng.integers(2))], int(rng.integers(1, 5)))
              for _ in range(200)]
    for i, (user, f) in enumerate(events):
        policy.on_request(req(i, user, f))
    for f in range(1, 5):
        total = sum(1 for _, g in events if g == f)
        from_bs1 = sum(1 for u, g in events if g == f and u == "a")
        assert policy.counts(0)[f] == total
        assert policy.counts(1)[f] == from_bs1
        assert policy.counts(2)[f] == total - from_bs1


def test_lfu_tie_evicts_least_recently_used():
    topo = single_bs_topology()
    policy = LfuPolicy(topo, CacheCapacities(cloud=0, edge=(2,)), 3)
    # counts: f1 = f2 = 1, then f3 arrives twice; the tie between f1 and f2
    # breaks toward f1 (older last use)
    replay(policy, [1, 2, 3, 3])
    assert policy.placement.contents[1] == {2, 3}


def test_lfu_heap_stays_bounded_by_the_cache():
    # a hit only bumps the counter and last use; the heap keeps exactly one
    # entry per resident file, and re-keying its stale top at eviction time
    # still finds the lowest (count, last_use, file) resident
    topo = single_bs_topology()
    policy = LfuPolicy(topo, CacheCapacities(cloud=2, edge=(1,)), 6)
    rng = np.random.default_rng(11)
    for i, f in enumerate(rng.zipf(1.5, size=20_000) % 6 + 1):
        policy.on_request(req(i, "u", int(f)))
        for cache, residents in enumerate(policy.placement.contents):
            heap, counts = policy._heaps[cache], policy.counts(cache)
            last_use = policy._last_use[cache]
            assert sorted(file for *_, file in heap) == sorted(residents)
            if residents:
                assert _lfu_victim(heap, counts, last_use) == min(
                    residents, key=lambda g: (counts[g], last_use[g], g))


def test_lfu_counts_checks_the_cache_and_hands_out_a_copy():
    topo = single_bs_topology()
    policy = LfuPolicy(topo, CacheCapacities(cloud=1, edge=(1,)), 3)
    replay(policy, [1, 2])
    for cache in (-1, 2, 1.0, "0", None):
        with pytest.raises(ValueError, match="cache index"):
            policy.counts(cache)
    counts = policy.counts(1)
    assert type(counts) is list and counts == [0, 1, 1, 0]
    # a caller's write to the copy leaves the counter, and so the next
    # eviction, as it was: f3 (one request) cannot displace f1 (count 1)
    counts[1] = 0
    assert policy.counts(1) == [0, 1, 1, 0]
    assert replay(policy, [3]) == ["cdn"]
    assert policy.placement.contents[1] == {1}


# ------------------------------------------------------------- lfu and lru

@pytest.mark.parametrize("cls", [LfuPolicy, LruPolicy])
def test_cold_policy_reads_num_files_as_catalog_does(cls):
    topo = single_bs_topology()
    caps = CacheCapacities(cloud=1, edge=(1,))
    policy = cls(topo, caps, 4.0)
    assert policy.placement.num_files == 4 and type(policy.placement.num_files) is int
    assert replay(policy, [4, 4]) == ["cdn", "local"]
    for num_files, message in ((0, ">= 1"), (-1, ">= 1"), (2.5, "a whole number"),
                               (float("nan"), "a whole number"),
                               ("3", "a whole number")):
        with pytest.raises(ValueError, match=f"^num_files must be {message}$"):
            cls(topo, caps, num_files)


@pytest.mark.parametrize("cls", [LfuPolicy, LruPolicy])
def test_location_code_matches_the_mask(cls):
    # the placement is read from the location codes, so it is checked against
    # the eviction state, a record kept apart from the codes: after every
    # request each cache's row holds exactly the files of its victim heap
    # (lfu) or recency dict (lru), within its capacity, no file is in two
    # edges, and serve answered the cheapest holder of the placement as it
    # was before the request; delays tie often, and some caches, or all,
    # hold nothing
    rng = np.random.default_rng(59)
    for trial in range(80):
        num_bs, num_files = int(rng.integers(1, 8)), int(rng.integers(1, 13))
        caps = rng.integers(0, num_files + 2, num_bs + 1) * (trial % 8 != 0)
        policy = cls(tie_heavy_topology(rng, num_bs),
                     CacheCapacities(cloud=int(caps[0]),
                                     edge=tuple(int(c) for c in caps[1:])),
                     num_files)
        size = int(rng.integers(0, 80))
        bs = rng.integers(1, num_bs + 1, size).tolist()
        files = np.minimum(rng.zipf(1.4, size), num_files).tolist()
        for b, f in zip(bs, files):
            want = route_request(policy.placement, policy.topology, b, f)
            assert policy.sources[policy.serve(b, f)] == want
            mask = policy.placement.mask
            assert mask[1:].sum(axis=0).max() <= 1  # no file in two edges
            for cache, row in enumerate(mask):
                held = (sorted(file for *_, file in policy._heaps[cache])
                        if cls is LfuPolicy else sorted(policy._recency[cache]))
                assert np.flatnonzero(row).tolist() == held
                assert len(held) <= caps[cache]


@pytest.mark.parametrize("name", ["lfu", "lru"])
def test_cold_policy_builds_only_the_code_table(name, monkeypatch):
    # lfu and lru serve from a table with one column per location code,
    # 2(R+1) of them; no per-file table is built for an empty placement
    topo, caps, pop, _ = least_popular_warm()
    shapes = []
    monkeypatch.setattr(octocache.policies, "_serving_table",
                        lambda mask, order: shapes.append(mask.shape)
                        or _serving_table(mask, order))
    make_policy(name, topo, Catalog(12), pop, caps, topo.users)
    assert shapes == [(4, 8)]


@pytest.mark.parametrize("cls", [LfuPolicy, LruPolicy])
def test_cold_policy_checks_requests_without_the_snapshot(cls, monkeypatch):
    # on_request and counts check a request against the policy's own sizes:
    # a per-event loop never pays for building the placement snapshot
    topo = build_paper_topology(2, 3).with_users({"a": 1, "b": 2})
    policy = cls(topo, CacheCapacities(cloud=2, edge=(1, 1)), 5)

    def no_snapshot(policy):
        raise AssertionError("built the placement snapshot")

    monkeypatch.setattr(octocache.policies._ColdPolicy, "placement", property(no_snapshot))
    rng = np.random.default_rng(47)
    for i in range(1000):
        policy.on_request(req(i, ("a", "b")[i % 2], int(rng.integers(1, 6))))
    for file in (0, 6):
        with pytest.raises(ValueError, match=f"^file index {file} outside 1..5$"):
            policy.on_request(req(0, "a", file))
    if cls is LfuPolicy:
        assert sum(policy.counts(0)) == 1000
        with pytest.raises(ValueError, match="^cache index 3 outside 0..2$"):
            policy.counts(3)


# ----------------------------------------------------------------- octopus

def test_octopus_hit_is_read_only(canonical):
    topo, catalog, pop, caps = canonical
    warm = pcd(topo, catalog, pop, caps).placement
    policy = OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
    before = policy.placement.copy()
    src = policy.on_request(req(0, "u1", 2))
    assert src.kind is SourceKind.LOCAL_EDGE
    src = policy.on_request(req(1, "u1", 1))
    assert src.kind is SourceKind.CLOUD
    assert policy.placement == before


def test_same_route_returns_same_source_object(canonical):
    # Sources are built once per policy, not once per request
    topo, catalog, pop, caps = canonical
    policy = make_policy("exmpc", topo, catalog, pop, caps, topo.users)
    file = next(iter(policy.placement.contents[0]))
    first = policy.on_request(req(0, "u1", file))
    assert first.kind is SourceKind.CLOUD
    assert policy.on_request(req(1, "u1", file)) is first


def test_octopus_miss_triggers_replacement(canonical):
    # warm placement predates the popularity shift that favors f4 over f3,
    # so the first miss on f4 must swap it in for f3
    topo, _, _, caps = canonical
    pop = Popularity(np.array([0.45, 0.27, 0.09, 0.19]))
    warm = Placement(caps, 4)
    warm.add(1, 0)
    warm.add(2, 1)
    warm.add(3, 2)
    policy = OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
    src = policy.on_request(req(0, "u1", 4))
    assert src.kind is SourceKind.CDN
    assert policy.placement.contents == [{1}, {2}, {4}]
    # f4 is now resident; a repeat request is a hit and changes nothing
    assert policy.on_request(req(1, "u2", 4)).kind is SourceKind.LOCAL_EDGE


def segment_replay_equals_serve(make, bs, files, monkeypatch):
    """Replay ``files`` from ``bs`` on one policy built by ``make`` and serve
    them one request at a time on a twin; both must agree bit for bit.
    Returns the served indices and the swap lists of every ``_rcr_swaps``
    call the replay made."""
    policy, twin = make(), make()
    calls = []
    swaps = octocache.policies._rcr_swaps
    monkeypatch.setattr(octocache.policies, "_rcr_swaps",
                        lambda ev, file: calls.append(swaps(ev, file)) or calls[-1])
    served = policy.replay(np.array(bs, dtype=np.intp), np.array(files, dtype=np.intp))
    monkeypatch.undo()
    assert served.dtype == np.intp
    assert served.tolist() == list(map(twin.serve, bs, files))
    assert policy.placement == twin.placement
    assert policy._ev.utility() == twin._ev.utility()
    return served, calls


def shifted_octopus(canonical):
    # the warm placement of test_octopus_miss_triggers_replacement: a miss
    # on f4 swaps it in for f3, and no other miss commits a swap
    topo, _, _, caps = canonical
    warm = Placement(caps, 4, [{1}, {2}, {3}])
    pop = Popularity(np.array([0.45, 0.27, 0.09, 0.19]))
    return lambda: OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))


def test_octopus_segment_replay_swaps_on_first_request(canonical, monkeypatch):
    served, calls = segment_replay_equals_serve(
        shifted_octopus(canonical), [1, 2, 1, 2, 1, 2], [4, 1, 2, 4, 3, 3], monkeypatch)
    assert [len(swaps) for swaps in calls] == [1]
    # f4 is a hit from the second request on, and the evicted f3 misses
    assert served[0] == 0 and served[3] != 0 and served[4] == served[5] == 0


def test_octopus_segment_replay_swaps_on_last_request(canonical, monkeypatch):
    served, calls = segment_replay_equals_serve(
        shifted_octopus(canonical), [1, 2, 1, 2, 1, 2], [1, 2, 3, 1, 3, 4], monkeypatch)
    assert [len(swaps) for swaps in calls] == [1]
    assert served[:-1].all() and served[-1] == 0


def least_popular_warm():
    """A 3-BS, 12-file instance with a 1/k popularity whose warm placement
    holds the least popular files: (topology, capacities, popularity,
    warm placement)."""
    topo = build_paper_topology(3, 8).with_users({f"u{k}": k % 3 + 1 for k in range(9)})
    caps = CacheCapacities(cloud=3, edge=(2, 2, 2))
    pop = Popularity.from_weights(1.0 / np.arange(1, 13))
    return topo, caps, pop, Placement(caps, 12, [{10, 11, 12}, {7, 8}, {9, 10}, {11, 12}])


def test_octopus_segment_replay_with_many_swaps(monkeypatch):
    # the warm placement holds the least popular files, so misses keep
    # swapping popular files in until the placement settles; the misses
    # after that change nothing
    topo, _, pop, warm = least_popular_warm()
    rng = np.random.default_rng(29)
    bs = rng.integers(1, 4, 600).tolist()
    files = (rng.choice(12, 600, p=pop.as_array()) + 1).tolist()
    served, calls = segment_replay_equals_serve(
        lambda: OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm)), bs, files, monkeypatch)
    assert len(calls) >= 5 and all(calls)
    assert (served == 0).sum() > len(calls)


def test_serving_table_follows_swaps():
    # the table octopus serves from equals one built afresh from its
    # placement after a replay and after direct on_miss calls that swap;
    # its refresh rebuilds only the touched columns, which equal those
    # columns of the full table
    topo, _, pop, warm = least_popular_warm()
    rng = np.random.default_rng(43)
    policy = OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
    policy.replay(rng.integers(1, 4, 300), rng.choice(12, 300, p=pop.as_array()) + 1)
    assert policy.placement != warm
    assert np.array_equal(policy._table, _serving_table(policy.placement.mask, policy._order))
    policy = OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
    swaps = [policy.on_miss(file) for file in (1, 2, 3, 4)]
    assert all(swaps)
    full = _serving_table(policy.placement.mask, policy._order)
    assert np.array_equal(policy._table, full)
    for _ in range(20):
        cols = rng.choice(13, int(rng.integers(1, 6)), replace=False)
        assert np.array_equal(_serving_table(policy.placement.mask[:, cols], policy._order),
                              full[:, cols])


def test_octopus_segment_replay_when_every_request_hits(canonical, monkeypatch):
    topo, catalog, pop, caps = canonical
    warm = pcd(topo, catalog, pop, caps).placement
    served, calls = segment_replay_equals_serve(
        lambda: OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm)),
        [1, 2, 2, 1, 1], [1, 2, 3, 3, 1], monkeypatch)
    assert served.all() and calls == []


def test_octopus_segment_replay_with_every_capacity_zero(canonical, monkeypatch):
    topo, _, pop, _ = canonical
    caps = CacheCapacities(cloud=0, edge=(0, 0))
    served, calls = segment_replay_equals_serve(
        lambda: OctopusPolicy(topo, UtilityEvaluator(topo, pop, Placement(caps, 3))),
        [1, 2, 1], [1, 2, 3], monkeypatch)
    assert served.tolist() == [0, 0, 0] and calls == []


def test_octopus_segment_replay_of_no_requests(canonical, monkeypatch):
    served, calls = segment_replay_equals_serve(shifted_octopus(canonical), [], [],
                                                monkeypatch)
    assert served.shape == (0,) and calls == []


def test_first_marked_reads_no_request_when_nothing_is_marked():
    class Unread:
        def __len__(self):
            return 5000

        def __getitem__(self, key):
            raise AssertionError("read a request")

    assert _first_marked(np.zeros(13, dtype=bool), Unread(), 0) == 5000
    marked = np.zeros(13, dtype=bool)
    marked[7] = True
    assert _first_marked(marked, np.array([1, 7, 2, 7]), 2) == 3


def test_octopus_on_request_calls_on_miss_by_attribute():
    # a wrapper set on the instance sees every CDN miss that on_request
    # serves, and only those: a traced rebuild counts misses this way
    rng = np.random.default_rng(31)
    topo, catalog, pop, _ = random_instance(rng, max_bs=3, max_files=10)
    caps = CacheCapacities(cloud=1, edge=(1,) * topo.num_bs)
    policy = make_policy("octopus", topo, catalog, pop, caps, topo.users)
    seen, on_miss = [], policy.on_miss
    policy.on_miss = lambda file: seen.append(file) or on_miss(file)
    users, misses = list(topo.users), []
    for i in range(300):
        file = int(rng.integers(1, catalog.num_files + 1))
        source = policy.on_request(req(i, users[int(rng.integers(len(users)))], file))
        if source.kind is SourceKind.CDN:
            misses.append(file)
    assert misses and seen == misses


def test_octopus_replay_swaps_through_on_miss_by_attribute():
    # replacement has one hook: a wrapper set on the instance's on_miss sees,
    # during one replay, exactly the swaps, in order, that a twin commits
    # through its own on_miss when served one request at a time
    topo, _, pop, warm = least_popular_warm()
    rng = np.random.default_rng(37)
    bs = rng.integers(1, 4, 600)
    files = rng.choice(12, 600, p=pop.as_array()) + 1
    policy, twin = (OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
                    for _ in range(2))
    swaps = {}
    for target in (policy, twin):
        on_miss, seen = target.on_miss, swaps.setdefault(target, [])
        target.on_miss = lambda file, on_miss=on_miss, seen=seen: (
            seen.append(on_miss(file)) or seen[-1])
    policy.replay(bs, files)
    for b, f in zip(bs.tolist(), files.tolist()):
        twin.serve(b, f)
    # the replay calls on_miss only on the misses that commit a swap
    assert len(swaps[policy]) >= 5 and all(swaps[policy])
    assert sum(swaps[policy], []) == sum(swaps[twin], [])
    assert policy.placement == twin.placement


def served_state(policy):
    """A policy's placement bytes and, for lfu, its request counters."""
    counts = getattr(policy, "counts", None)
    return (bytes(policy.placement.mask),
            [list(counts(cache)) for cache in range(len(policy.placement.mask))]
            if counts else None)


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                       lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
def test_a_policy_copy_is_independent(duplicate, name):
    # every policy copies, and serving through the copy changes its own
    # placement and counters, not the original's. Octopus starts from the
    # least popular files, so that serving it swaps
    topo, caps, pop, warm = least_popular_warm()
    if name == "octopus":
        policy = OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
    else:
        policy = make_policy(name, topo, Catalog(12), pop, caps, topo.users)
    twin = duplicate(policy)
    before = served_state(policy)
    assert served_state(twin) == before
    rng = np.random.default_rng(41)
    for b, f in zip(rng.integers(1, 4, 200), rng.choice(12, 200, p=pop.as_array()) + 1):
        twin.serve(int(b), int(f))
    assert served_state(policy) == before
    if name in ("octopus", "lfu", "lru"):
        assert served_state(twin) != before


def test_octopus_rcr_disabled_is_static(canonical):
    topo, catalog, pop, caps = canonical
    pop4 = Popularity(np.array([0.45, 0.27, 0.09, 0.19]))
    warm = pcd(topo, Catalog(num_files=4), pop4, caps).placement
    policy = make_policy("octopus", topo, Catalog(num_files=4), pop4, caps,
                         topo.users, rcr_enabled=False)
    assert not isinstance(policy, OctopusPolicy)
    assert policy.name == "octopus" and policy.routing_mode is RoutingMode.FULL
    assert policy.placement == warm
    missing = next(f for f in range(1, 5) if not any(f in c for c in warm.contents))
    assert policy.on_request(req(0, "u1", missing)).kind is SourceKind.CDN
    assert policy.placement == warm


def test_make_policy_hands_the_greedy_evaluator_to_octopus(canonical, monkeypatch):
    # the greedy fills the one evaluator that reactive replacement then
    # mutates: no second evaluator, no pcd report, for octopus or femtox
    topo, catalog, pop, caps = canonical
    built, reports = [], []
    init = UtilityEvaluator.__init__
    monkeypatch.setattr(UtilityEvaluator, "__init__",
                        lambda ev, *args, **kw: built.append(ev) or init(ev, *args, **kw))
    for module in (octocache.placement, octocache.policies):
        monkeypatch.setattr(module, "pcd",
                            lambda *args, **kw: reports.append(args) or pcd(*args, **kw),
                            raising=False)
    policy = make_policy("octopus", topo, catalog, pop, caps, topo.users)
    assert isinstance(policy, OctopusPolicy)
    assert reports == []
    assert len(built) == 1 and policy._ev is built[0]
    assert policy._ev.placement is policy.placement
    make_policy("femtox", topo, catalog, pop, caps, topo.users)
    assert reports == []


def test_make_policy_greedy_evaluator_equals_a_fresh_one():
    # the placements equal pcd's, and the evaluator the greedy filled reads
    # bit for bit like one built afresh on its placement
    rng = np.random.default_rng(41)
    for trial in range(200):
        topo, *_ = random_instance(rng, max_bs=4)
        num_files = int(rng.integers(1, 13))
        catalog = Catalog(num_files=num_files)
        pop = Popularity.from_weights(rng.random(num_files) + 0.01)
        # every eighth instance has all capacities 0
        drawn = rng.integers(0, num_files + 3, topo.num_bs + 1) * (trial % 8 != 0)
        caps = CacheCapacities(cloud=int(drawn[0]), edge=tuple(int(c) for c in drawn[1:]))
        greedy = pcd(topo, catalog, pop, caps).placement
        for rcr_enabled in (True, False):
            policy = make_policy("octopus", topo, catalog, pop, caps, topo.users,
                                 rcr_enabled=rcr_enabled)
            assert policy.placement == greedy
        femtox = make_policy("femtox", topo, catalog, pop, caps, topo.users)
        assert femtox.placement == pcd(topo, catalog, pop, caps,
                                       mode=RoutingMode.EDGE_CLOUD).placement
        ev = make_policy("octopus", topo, catalog, pop, caps, topo.users)._ev
        fresh = UtilityEvaluator(topo, pop, greedy)
        for read in (lambda e: e.mask, lambda e: e.codes, lambda e: marginal_tables(e)[0],
                     lambda e: marginal_tables(e)[1], _rcr_triggers):
            assert read(ev).tobytes() == read(fresh).tobytes()
        assert ev.utility() == fresh.utility()
        assert ev.min_loss_element() == fresh.min_loss_element()


def test_octopus_utility_nondecreasing_over_stream():
    rng = np.random.default_rng(19)
    topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=8, max_cap=2)
    warm = pcd(topo, catalog, pop, caps).placement
    policy = OctopusPolicy(topo, UtilityEvaluator(topo, pop, warm))
    users = list(topo.users)
    last = utility(policy.placement, topo, pop)
    for i in range(300):
        user = users[int(rng.integers(len(users)))]
        policy.on_request(req(i, user, int(rng.integers(1, catalog.num_files + 1))))
        now = utility(policy.placement, topo, pop)
        assert now >= last - 1e-9
        last = now


# ------------------------------------------------------------ common rules

def test_unknown_user_raises(canonical):
    topo, catalog, pop, caps = canonical
    policy = make_policy("lru", topo, catalog, pop, caps, {"u1": 1, "u2": 2})
    with pytest.raises(ValueError):
        policy.on_request(req(0, "stranger", 1))


def test_make_policy_names_and_modes(canonical):
    topo, catalog, pop, caps = canonical
    assignment = {"u1": 1, "u2": 2}
    modes = {"octopus": RoutingMode.FULL, "eo": RoutingMode.EDGE_ONLY,
             "ecnc": RoutingMode.EDGE_CLOUD, "exmpc": RoutingMode.FULL,
             "femtox": RoutingMode.FULL, "lfu": RoutingMode.FULL,
             "lru": RoutingMode.FULL}
    for name, mode in modes.items():
        policy = make_policy(name, topo, catalog, pop, caps, assignment)
        assert policy.routing_mode is mode
        assert policy.placement.is_feasible()
    with pytest.raises(ValueError):
        make_policy("mystery", topo, catalog, pop, caps, assignment)


@pytest.mark.parametrize("name", ["octopus", "eo", "ecnc", "exmpc", "femtox",
                                  "lfu", "lru"])
def test_capacity_invariant_after_event_storm(name):
    rng = np.random.default_rng(43)
    topo, catalog, pop, caps = random_instance(rng, max_bs=3, max_files=10, max_cap=2)
    assignment = dict(topo.users)
    policy = make_policy(name, topo, catalog, pop, caps, assignment)
    users = list(assignment)
    sizes = [min(c, catalog.num_files) for c in caps.as_list()]
    for i in range(400):
        user = users[int(rng.integers(len(users)))]
        policy.on_request(req(i, user, int(rng.integers(1, catalog.num_files + 1))))
        placement = policy.placement
        assert placement.is_feasible()
        for cache, size in enumerate(sizes):
            assert placement.cache_size(cache) <= size


def test_eo_hit_ratio_never_beats_ecnc(canonical):
    # identical placement inputs, strictly more reachable sources for ecnc
    topo, catalog, pop, caps = canonical
    assignment = {"u1": 1, "u2": 2}
    eo = make_policy("eo", topo, catalog, pop, caps, assignment)
    ecnc = make_policy("ecnc", topo, catalog, pop, caps, assignment)
    rng = np.random.default_rng(3)
    hits_eo = hits_ecnc = 0
    for i in range(500):
        user = ("u1", "u2")[int(rng.integers(2))]
        file = int(rng.integers(1, 4))
        hits_eo += eo.on_request(req(i, user, file)).kind is not SourceKind.CDN
        hits_ecnc += ecnc.on_request(req(i, user, file)).kind is not SourceKind.CDN
    assert hits_ecnc >= hits_eo


def tie_heavy_topology(rng, num_bs):
    """Fronthaul and neighbour delays drawn from {1, 2, 3} ms, so the cloud
    and several neighbours often cost the same."""
    edge = tuple(float(d) for d in rng.integers(1, 4, size=num_bs))
    peer = tuple(tuple(0.0 if r == k else float(rng.integers(1, 4))
                       for k in range(num_bs)) for r in range(num_bs))
    return Topology(num_bs=num_bs, edge_delay=edge, peer_delay=peer,
                    cdn_delay=10.0)


@pytest.mark.parametrize("mode", list(RoutingMode))
def test_serving_table_equals_route_request(mode):
    # every (bs, file) entry is the policy's table entry and serve's answer,
    # and it names the Source route_request's per-request walk returns
    rng = np.random.default_rng(17)
    for _ in range(60):
        num_bs = int(rng.integers(1, 6))
        num_files = int(rng.integers(1, 12))
        caps = CacheCapacities(cloud=int(rng.integers(0, 6)),
                               edge=tuple(int(c) for c in rng.integers(0, 6, num_bs)))
        placement = random_feasible_placement(rng, caps, num_files, fill=1.0)
        topology = tie_heavy_topology(rng, num_bs)
        policy = Policy("static", placement, topology, mode)
        table = _serving_table(placement.mask, policy._order)
        assert table.shape == (num_bs + 1, num_files + 1)
        assert set(table[0]) == {0} and set(table[:, 0]) == {0}
        assert np.array_equal(policy._table, table)
        assert policy.sources[0].kind is SourceKind.CDN
        for bs in range(1, num_bs + 1):
            for file in range(1, num_files + 1):
                want = route_request(placement, topology, bs, file, mode)
                assert policy.sources[table[bs, file]] == want
                assert policy.serve(bs, file) == table[bs, file]


def test_replay_is_serve_request_by_request(monkeypatch):
    # replay's answers and final placement equal those of an identically
    # built twin served one request at a time; the static placements
    # answer without serve
    def no_serve(bs, file):
        raise AssertionError("a static placement called serve")

    rng = np.random.default_rng(23)
    for trial in range(200):
        num_bs, num_files = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        # every eighth instance has all capacities 0
        caps = rng.integers(0, num_files + 3, num_bs + 1) * (trial % 8 != 0)
        capacities = CacheCapacities(cloud=int(caps[0]),
                                     edge=tuple(int(c) for c in caps[1:]))
        topology = build_paper_topology(num_bs, trial)
        catalog = Catalog(num_files=num_files)
        popularity = Popularity.from_weights(rng.random(num_files) + 0.01)
        assignment = {f"u{r}": r for r in range(1, num_bs + 1)}
        size = int(rng.integers(0, 60))
        bs = rng.integers(1, num_bs + 1, size)
        files = rng.integers(1, num_files + 1, size)
        for name in POLICY_NAMES:
            for rcr_enabled in (True, False) if name == "octopus" else (True,):
                policy, twin = (make_policy(name, topology, catalog, popularity,
                                            capacities, assignment,
                                            rcr_enabled=rcr_enabled)
                                for _ in range(2))
                if name in ("eo", "ecnc", "exmpc", "femtox") or not rcr_enabled:
                    monkeypatch.setattr(policy, "serve", no_serve)
                served = policy.replay(bs, files)
                assert served.dtype == np.intp
                assert served.tolist() == list(map(twin.serve, bs.tolist(),
                                                   files.tolist()))
                assert policy.placement == twin.placement


def test_serve_is_on_request_without_the_user_lookup(canonical):
    topo, catalog, pop, caps = canonical
    by_event = make_policy("lru", topo, catalog, pop, caps, {"u1": 1, "u2": 2})
    by_bs = make_policy("lru", topo, catalog, pop, caps, {"u1": 1, "u2": 2})
    rng = np.random.default_rng(5)
    for i in range(200):
        user, bs = (("u1", 1), ("u2", 2))[int(rng.integers(2))]
        file = int(rng.integers(1, 4))
        assert (by_event.on_request(req(i, user, file))
                == by_bs.sources[by_bs.serve(bs, file)])
    assert by_event.placement == by_bs.placement
