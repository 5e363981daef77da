"""Hierarchical LFU and LRU against textbook per-request loops.

The references below route and replace one request at a time with plain
sets, dicts and ``min``; they share no code with ``octocache.policies``
beyond the two public constructors they check.
"""

from collections import Counter

import numpy as np

from octocache import CacheCapacities, LfuPolicy, LruPolicy, SourceKind, Topology


def reference_cache(topology, contents, bs, file):
    """Cache that serves ``file`` at ``bs`` under full routing, else None:
    the cheapest holder, the lower cache index first at equal cost."""
    def cost(cache):
        if cache == bs:
            return 0.0
        if cache == 0:
            return topology.edge_delay[bs - 1]
        return topology.peer_delay[bs - 1][cache - 1]

    holders = [cache for cache, files in enumerate(contents) if file in files]
    return min(holders, key=lambda cache: (cost(cache), cache), default=None)


def reference_lru(topology, capacities, requests):
    """Served cache per request and the final contents: a miss inserts the
    file at the home edge and the cloud, evicting the least recently used
    resident of a full cache; a hit refreshes it where it is resident."""
    caps = capacities.as_list()
    recency = [[] for _ in caps]            # least recently used first
    served = []
    for bs, file in requests:
        cache = reference_cache(topology, [set(r) for r in recency], bs, file)
        served.append(cache)
        for at in (bs, 0):
            used = recency[at]
            if cache is None:
                if caps[at] == 0:
                    continue
                if len(used) == caps[at]:
                    used.pop(0)
                used.append(file)
            elif file in used:
                used.remove(file)
                used.append(file)
    return served, [set(r) for r in recency]


def reference_lfu(topology, capacities, num_files, requests):
    """Served cache per request, the final contents and the counters: each
    request counts at the home edge and the cloud; a miss inserts there when
    the cache has room, or evicts the resident with the lowest (count, last
    use, file) when the file's count is strictly higher."""
    caps = capacities.as_list()
    contents = [set() for _ in caps]
    counts = [[0] * (num_files + 1) for _ in caps]
    last_use = [{} for _ in caps]
    served = []
    for seq, (bs, file) in enumerate(requests, start=1):
        cache = reference_cache(topology, contents, bs, file)
        served.append(cache)
        for at in (bs, 0):
            counts[at][file] += 1
            if file in contents[at]:
                last_use[at][file] = seq
            elif cache is None:
                if len(contents[at]) == caps[at]:
                    if not contents[at]:
                        continue
                    victim = min(contents[at], key=lambda f: (
                        counts[at][f], last_use[at][f], f))
                    if counts[at][file] <= counts[at][victim]:
                        continue
                    contents[at].remove(victim)
                contents[at].add(file)
                last_use[at][file] = seq
    return served, contents, counts


def random_topology(rng, num_bs):
    """Delays drawn from {1, 2, 3} ms, so routing ties are common."""
    edge = tuple(float(d) for d in rng.integers(1, 4, size=num_bs))
    peer = tuple(tuple(0.0 if r == k else float(rng.integers(1, 4))
                       for k in range(num_bs)) for r in range(num_bs))
    return Topology(num_bs=num_bs, edge_delay=edge, peer_delay=peer,
                    cdn_delay=10.0)


def run_in_chunks(policy, bs, files, rng):
    """Alternate ``serve`` one request at a time and ``replay`` of a chunk
    on one policy; returns the served source indices in request order."""
    served, start = [], 0
    while start < len(bs):
        stop = start + int(rng.integers(1, 9))
        if rng.random() < 0.5:
            served += map(policy.serve, bs[start:stop].tolist(),
                          files[start:stop].tolist())
        else:
            served += policy.replay(bs[start:stop], files[start:stop]).tolist()
        start = stop
    return served


def check_against_references(topology, capacities, num_files, bs, files, rng):
    """Both policies, replayed in one pass and in interleaved ``serve`` and
    ``replay`` chunks, serve every request from the references' cache and
    end with their contents (and, for LFU, their counters)."""
    requests = list(zip(bs.tolist(), files.tolist()))
    want_lru, lru_contents = reference_lru(topology, capacities, requests)
    want_lfu, lfu_contents, lfu_counts = reference_lfu(
        topology, capacities, num_files, requests)
    for cls, want, contents in ((LruPolicy, want_lru, lru_contents),
                                (LfuPolicy, want_lfu, lfu_contents)):
        by_replay = cls(topology, capacities, num_files)
        by_chunks = cls(topology, capacities, num_files)
        for policy, served in (
                (by_replay, by_replay.replay(bs, files).tolist()),
                (by_chunks, run_in_chunks(by_chunks, bs, files, rng))):
            assert [policy.sources[i].cache for i in served] == want
            assert policy.placement.contents == contents
            if cls is LfuPolicy:
                for cache, counts in enumerate(lfu_counts):
                    assert policy.counts(cache) == counts


def test_lfu_and_lru_equal_textbook_loops():
    rng = np.random.default_rng(181)
    big_caches = 0
    for trial in range(240):
        num_bs, num_files = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        # every eighth instance has all capacities 0
        caps = rng.integers(0, num_files + 3, num_bs + 1) * (trial % 8 != 0)
        big_caches += int((caps >= num_files).sum())
        capacities = CacheCapacities(cloud=int(caps[0]),
                                     edge=tuple(int(c) for c in caps[1:]))
        topology = random_topology(rng, num_bs)
        size = int(rng.integers(0, 80))
        bs = rng.integers(1, num_bs + 1, size)
        # skewed file draws, so files recur and counters tie and differ
        files = np.minimum(rng.zipf(1.6, size), num_files)
        check_against_references(topology, capacities, num_files, bs, files, rng)
    assert big_caches > 50
    # long streams over small caches: each file's copies come and go many
    # times, and LFU re-keys long runs of stale heap tops at each eviction
    for _ in range(3):
        num_files = int(rng.integers(150, 301))
        caps = np.maximum(1, (rng.uniform(0.02, 0.15, 8) * num_files).astype(int))
        capacities = CacheCapacities(cloud=int(caps[0]),
                                     edge=tuple(int(c) for c in caps[1:]))
        size = int(rng.integers(2000, 4001))
        weights = np.arange(1, num_files + 1) ** -rng.uniform(0.6, 1.2)
        files = rng.choice(np.arange(1, num_files + 1), size, p=weights / weights.sum())
        bs = rng.integers(1, 8, size)
        check_against_references(random_topology(rng, 7), capacities, num_files,
                                 bs, files, rng)


def test_lfu_and_lru_equal_textbook_loops_when_most_requests_hit():
    # the regime of the pinned benchmark: seven BSs whose caches each hold
    # half to all of the catalog, so most requests hit, many of them at a
    # neighbour's edge, and many files sit in an edge and the cloud at once
    rng = np.random.default_rng(191)
    for _ in range(4):
        num_files = int(rng.integers(40, 121))
        caps = (rng.uniform(0.5, 1.0, 8) * num_files).astype(int)
        capacities = CacheCapacities(cloud=int(caps[0]),
                                     edge=tuple(int(c) for c in caps[1:]))
        topology = random_topology(rng, 7)
        size = int(rng.integers(1500, 3001))
        weights = np.arange(1, num_files + 1) ** -rng.uniform(0.6, 1.2)
        files = rng.choice(np.arange(1, num_files + 1), size, p=weights / weights.sum())
        bs = rng.integers(1, 8, size)
        for cls in (LfuPolicy, LruPolicy):
            policy = cls(topology, capacities, num_files)
            kinds = Counter(policy.sources[i].kind for i in policy.replay(bs, files))
            assert kinds[SourceKind.NEIGHBOR_EDGE] > size // 10
            assert kinds[SourceKind.CDN] < size // 4
            in_cloud, *in_edges = policy.placement.contents
            assert len(in_cloud & set().union(*in_edges)) > num_files // 4
        check_against_references(topology, capacities, num_files, bs, files, rng)
