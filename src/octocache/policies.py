"""Cache-management policies driven by the request stream.

Policies resolve each request against their current cache contents (the
routing mode is a property of the policy) and update state on misses. One
serving table, built by ``routing._serving_table``, answers every request:
its entry per (requesting BS, file), or for lfu and lru per (requesting BS,
location code), is the index of the cheapest source holding the file.

* ``octopus``  - greedy warm placement, then reactive replacement after a
  miss; full cooperative routing. Without replacement it is a static
  placement.
* ``eo`` / ``ecnc`` / ``exmpc`` / ``femtox`` - static placements, no
  reactive updates; ``eo`` routes edge-only, ``ecnc`` edge+cloud, the rest
  use full cooperative routing.
* ``lfu`` / ``lru`` - classic reactive replacement applied hierarchically:
  a CDN miss inserts the file into both the requesting BS's edge cache and
  the cloud cache, each applying its own eviction rule. Both start cold.

Octopus and the static placements share one ``serve`` and one ``replay``:
a static placement is octopus with no swap and no miss that triggers one,
and every swap goes through ``on_miss``, which rewrites the table's columns
of the files it touched. lfu and lru replay in one pass, a method over the
policy's attributes that serves a run of requests with the step inline and
inserts and evicts by rewriting location codes. One code per file, the edge
holding it and whether the cloud does (no file is in two edges), is their
only record of their caches: a hit reads its server from the table at that
code, and their ``placement`` is a snapshot built from the codes when read.

Observation scopes for the reactive bookkeeping: an edge cache sees the
requests of the users homed at its BS; the cloud cache (managed centrally)
sees every request.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np

from .placement import (_greedy, _rcr_swaps, _rcr_triggers, place_ecnc, place_eo,
                        place_exmpc, place_femtox)
from .routing import (Placement, RoutingMode, _check_index, _check_instance, _serving_table,
                      _source_table)
from .topology import _count

POLICY_NAMES = ("octopus", "eo", "ecnc", "exmpc", "femtox", "lfu", "lru")

#: Each static baseline's placement function and its evaluation routing.
_STATIC_POLICIES = {
    "eo": (place_eo, RoutingMode.EDGE_ONLY),
    "ecnc": (place_ecnc, RoutingMode.EDGE_CLOUD),
    "exmpc": (place_exmpc, RoutingMode.FULL),
    "femtox": (place_femtox, RoutingMode.FULL),
}


class Policy:
    """A placement and its routing: the base of every policy, and as it
    stands a static placement. ``placement`` is the policy's own cache
    contents, which only the policy mutates; lfu and lru hold theirs as
    location codes, and their ``placement`` is a snapshot of those
    (:class:`_ColdPolicy`). ``sources`` lists the
    :class:`Source` objects it routes to, the CDN at index 0; :meth:`serve`
    and :meth:`replay` name a server by its index there, read from the one
    serving table ``_table`` (``routing._serving_table``). The table follows
    the placement only through :meth:`on_miss`: a policy that swaps files
    after a CDN miss overrides it, rewriting the table's columns of the
    files it touched, and :meth:`_triggers`; lfu and lru override
    :meth:`serve`, :meth:`replay` and :meth:`_hold`. A policy deep-copies
    and pickles, its cache contents and table with it."""

    def __init__(self, name, placement, topology, routing_mode):
        _check_instance(topology, placement)
        self.name = name
        self.topology = topology
        self.routing_mode = routing_mode
        self.sources, self._order = _source_table(topology, routing_mode)
        self._num_files = placement.num_files
        self._hold(placement)

    def _hold(self, placement):
        """Keep ``placement`` as the cache contents, and its serving table."""
        self.placement = placement
        self._table = _serving_table(placement.mask, self._order)

    def on_request(self, event):
        """Serve one :class:`RequestEvent`: its user's home BS, then
        :meth:`serve`.

        Returns the :class:`Source` used, for metric accounting. Raises
        ``ValueError`` on an unknown user or an out-of-range file; callers
        doing bulk replay skip such events and tally them as malformed.
        """
        bs = self.topology.home_bs(event.user_id)
        _check_index(event.file_id, 1, self._num_files, "file")
        return self.sources[self.serve(bs, event.file_id)]

    def serve(self, bs, file):
        """Route a request for ``file`` (1..F) from BS ``bs`` (1..R), which
        the caller checks, then apply the policy's update rule: after a CDN
        miss, :meth:`on_miss`. Returns the index in :attr:`sources` of the
        source used; 0 is a CDN miss."""
        index = int(self._table[bs, file])
        if index == 0:
            self.on_miss(file)
        return index

    def replay(self, bs, files):
        """:meth:`serve` each request for ``files[i]`` (1..F) from BS
        ``bs[i]`` (1..R, which the caller checks), in order, and return each
        request's :attr:`sources` index as an intp array.

        Only a miss on a file :meth:`_triggers` marks changes the placement,
        so each segment is one lookup of the serving table up to and
        including the first request for such a file, whose miss then runs
        :meth:`on_miss`. This equals :meth:`serve` request by request; a
        static placement marks no file, so it replays as one segment."""
        served = np.empty(len(files), dtype=np.intp)
        start = 0
        while start < len(files):
            stop = _first_marked(self._triggers(), files, start)
            served[start:stop + 1] = self._table[bs[start:stop + 1], files[start:stop + 1]]
            if stop < len(files):
                self.on_miss(int(files[stop]))
            start = stop + 1
        return served

    def on_miss(self, file):
        """Reactive replacement for ``file``, just fetched from the CDN.
        Returns the committed swap records; a static placement has none."""
        return []

    def _triggers(self):
        """The misses on which :meth:`on_miss` would commit a swap, as a mask
        over file ids 0..F, valid until the placement changes; only uncached
        files may be set. A static placement sets none."""
        return np.zeros(self.placement.num_files + 1, dtype=bool)


#: Requests :meth:`Policy.replay` scans first for a segment's end; each
#: further scan doubles, so a segment costs about its own length.
_FIRST_SCAN = 256


def _first_marked(marked, files, start):
    """Index of the first request at or after ``start`` whose file is set in
    ``marked``, else ``len(files)``, read in scans of doubling length; an
    all-clear ``marked`` reads no request."""
    if not marked.any():
        return len(files)
    scan = _FIRST_SCAN
    while start < len(files):
        hit = marked[files[start:start + scan]]
        if hit.any():
            return start + int(hit.argmax())
        start += scan
        scan *= 2
    return len(files)


class OctopusPolicy(Policy):
    """Greedy warm placement plus reactive replacement on each miss.

    The policy keeps ``evaluator`` (FULL routing), not a copy: its placement
    is the policy's, and its popularity, fixed, drives every swap. Hits are
    read-only; :meth:`on_miss` runs the swaps, and :meth:`_triggers` marks
    the uncached files whose miss would commit one (``_rcr_triggers``).
    """

    def __init__(self, topology, evaluator):
        self._ev = evaluator
        # the evaluator's own placement, which replacement mutates in place
        super().__init__("octopus", evaluator.placement, topology, RoutingMode.FULL)

    def on_miss(self, file):
        """Reactive replacement for a file just fetched from the CDN; the
        serving table's columns of the files it swapped are rebuilt."""
        swaps = _rcr_swaps(self._ev, file)
        if swaps:
            touched = [file, *(s["evicted_file"] for s in swaps)]
            self._table[:, touched] = _serving_table(self.placement.mask[:, touched],
                                                     self._order)
        return swaps

    def _triggers(self):
        return _rcr_triggers(self._ev)


def _lfu_victim(heap, counts, last_use):
    """The resident file with the lowest (count, last_use) key, read from a
    cache's LFU ``heap``, which holds one (count, last_use, file) entry per
    resident. An entry is stale once its file was used again, which also
    bumped its count; as keys only grow, re-pushing the stale top with its
    current key until the top is fresh leaves the true minimum on top."""
    _, used, file = heap[0]
    while used != last_use[file]:
        heapq.heapreplace(heap, (counts[file], last_use[file], file))
        _, used, file = heap[0]
    return file


class _ColdPolicy(Policy):
    """Base of :class:`LfuPolicy` and :class:`LruPolicy`: empty caches at
    the start, FULL routing, and an update on any request.

    A subclass's pass, the method ``_pass(bs_list, file_list)``, binds the
    policy's attributes to locals and serves the requests in order, its step
    inline, returning each request's :attr:`sources` index in a list.
    :meth:`serve` is a one-request pass and :meth:`replay` one pass, so the
    two share one step and one state. ``_sides[bs]`` holds a tuple for BS
    ``bs``'s edge cache, then one for the cloud: the cache's entry of each
    per-cache list in ``state``, its capacity, the bit the cache sets in a
    location code and the mask that clears that bit.

    The location codes are the only record of what the caches hold; a pass
    writes them and its own eviction state, nothing else. ``placement`` is
    a snapshot, a new :class:`Placement` built from the codes on each read,
    which the policy never reads back.

    ``_codes[file]`` is the file's location code, ``2 * edge + cloud``:
    ``edge`` is the BS whose edge cache holds the file (0 for none) and
    ``cloud`` is 1 if the cloud cache holds it; 0 means no copy. One edge is
    enough: a pass inserts a file only on a CDN miss, when no cache holds
    it, and only at the home edge and the cloud, so no file is ever in two
    edge caches. FULL routing over finite delays (``Topology`` rejects any
    other) reaches every cache, so code 0 is a CDN miss, and any other code
    a hit at source ``_table[bs][code]``: the serving table of the caches
    each code names, one column per code.
    """

    def __init__(self, name, topology, capacities, num_files, *state):
        super().__init__(name, Placement(capacities, num_files), topology, RoutingMode.FULL)
        caps = capacities.as_list()
        self._sides = (None, *(tuple((*(column[cache] for column in (*state, caps)), bit, keep)
                                     for cache, bit, keep in ((bs, 2 * bs, 1), (0, 1, ~1)))
                               for bs in range(1, len(caps))))

    def _hold(self, placement):
        """Keep the empty ``placement`` as a code per file, and the codes' table."""
        self._capacities = placement.capacities
        self._codes = [0] * (placement.num_files + 1)
        codes = np.arange(2, 2 * placement.num_caches)
        held = np.zeros((placement.num_caches, 2 * placement.num_caches), dtype=bool)
        held[codes >> 1, codes] = True  # code c names the edge c >> 1 ...
        held[0, 1::2] = True  # ... and the cloud when c is odd
        self._table = _serving_table(held, self._order).tolist()

    @property
    def placement(self):
        """A snapshot of the caches, built from the location codes."""
        codes = np.array(self._codes, dtype=np.intp)
        snapshot = Placement(self._capacities, codes.size - 1)
        snapshot.mask[codes >> 1, np.arange(codes.size)] = True  # the edges; row 0 is next
        snapshot.mask[0] = codes & 1
        return snapshot

    def serve(self, bs, file):
        return self._pass((bs,), (file,))[0]

    def replay(self, bs, files):
        return np.array(self._pass(bs.tolist(), files.tolist()), dtype=np.intp)


class LfuPolicy(_ColdPolicy):
    """Hierarchical least-frequently-used replacement.

    Every observed request bumps the file's counter at the observing caches
    (edge cache of the home BS, plus the cloud). On a CDN miss the file is
    inserted at both caches, evicting the lowest-count resident, but only if
    the new file's count strictly exceeds the victim's. Counter ties evict
    the least recently used; a cache never holds two files of one last use,
    since each request uses one file. Counters never decay.

    A hit only bumps the counters and, where the file is resident, the last
    use; each cache's victim heap is re-keyed when the cache evicts
    (:func:`_lfu_victim`).
    """

    def __init__(self, topology, capacities, num_files):
        caps = capacities.as_list()
        num_files = _count(num_files, "num_files", 1)  # sizes the counters below
        self._counts = [[0] * (num_files + 1) for _ in caps]
        self._last_use = [[0] * (num_files + 1) for _ in caps]
        self._heaps = [[] for _ in caps]
        self._seq = 0  # the last use stamped so far
        # sides: (counts, last uses, victim heap, capacity, bit, keep)
        super().__init__("lfu", topology, capacities, num_files,
                         self._counts, self._last_use, self._heaps)

    def _pass(self, bs_list, file_list):
        codes, table, sides = self._codes, self._table, self._sides
        counts, last_use = self._counts, self._last_use
        cloud_count, cloud_used = counts[0], last_use[0]
        # the pass's stamps are reserved up front, so a pass that raises
        # still leaves the clock past every stamp it wrote
        stamp, self._seq = self._seq, self._seq + len(file_list)
        served = []
        append = served.append
        for bs, file in zip(bs_list, file_list):
            stamp += 1
            code = codes[file]
            if code:
                append(table[bs][code])
                counts[bs][file] += 1
                cloud_count[file] += 1
                if code >> 1 == bs:
                    last_use[bs][file] = stamp
                if code & 1:
                    cloud_used[file] = stamp
                continue
            for count, used, heap, cap, bit, keep in sides[bs]:
                count[file] += 1
                key = (count[file], stamp, file)
                if len(heap) < cap:  # one heap entry per resident
                    heapq.heappush(heap, key)
                elif heap and count[file] > count[_lfu_victim(heap, count, used)]:
                    codes[heapq.heapreplace(heap, key)[2]] &= keep
                else:
                    continue
                codes[file] |= bit
                used[file] = stamp
            append(0)
        return served

    def counts(self, cache):
        """A copy of the observed request counts at one cache, as a list
        indexed by file (index 0 is unused); ``ValueError`` on a cache
        outside 0..R."""
        _check_index(cache, 0, len(self._counts) - 1, "cache")
        return list(self._counts[cache])


class LruPolicy(_ColdPolicy):
    """Hierarchical least-recently-used replacement.

    A request refreshes the file's recency at the observing caches where it
    is resident (edge of the home BS, plus the cloud). A CDN miss inserts
    unconditionally at both, evicting the least recently used resident;
    insertion counts as a use.
    """

    def __init__(self, topology, capacities, num_files):
        self._recency = [OrderedDict() for _ in capacities.as_list()]
        # sides: (recency, capacity, bit, keep)
        super().__init__("lru", topology, capacities, num_files, self._recency)

    def _pass(self, bs_list, file_list):
        codes, table, sides, recency = self._codes, self._table, self._sides, self._recency
        cloud_used = recency[0]
        served = []
        append = served.append
        for bs, file in zip(bs_list, file_list):
            code = codes[file]
            if code:
                append(table[bs][code])
                if code >> 1 == bs:
                    recency[bs].move_to_end(file)
                if code & 1:
                    cloud_used.move_to_end(file)
                continue
            for used, cap, bit, keep in sides[bs]:
                if len(used) >= cap:  # one recency entry per resident
                    if not used:  # a cache of capacity 0
                        continue
                    codes[used.popitem(last=False)[0]] &= keep
                codes[file] |= bit
                used[file] = None
            append(0)
        return served


def make_policy(name, topology, catalog, popularity, capacities, assignment,
                rcr_enabled=True):
    """Build a replay-ready policy by its contract name.

    The policy runs on ``topology.with_users(assignment)``. ``octopus``
    hands the evaluator the greedy fills to :class:`OctopusPolicy`, or,
    without ``rcr_enabled``, keeps its placement static under full routing;
    ``_STATIC_POLICIES`` places and routes the rest; ``lfu``/``lru`` start cold.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}")
    topology = topology.with_users(assignment)
    if name in ("lfu", "lru"):
        cold = LfuPolicy if name == "lfu" else LruPolicy
        return cold(topology, capacities, catalog.num_files)
    if name == "octopus":
        ev = _greedy(topology, catalog, popularity, capacities, RoutingMode.FULL)[0]
        if rcr_enabled:
            return OctopusPolicy(topology, ev)
        return Policy(name, ev.placement, topology, RoutingMode.FULL)
    place, mode = _STATIC_POLICIES[name]
    return Policy(name, place(topology, catalog, popularity, capacities),
                  topology, mode)
