"""Cache-management policies driven by the request stream.

Policies resolve each request against their current cache contents (the
routing mode is a property of the policy) and update state on misses:

* ``octopus``  - greedy warm placement, then reactive replacement after a
  miss; full cooperative routing. Only the few misses that commit a swap
  change the placement, so it replays as static segments between those
  swaps. Without replacement it is a static placement.
* ``eo`` / ``ecnc`` / ``exmpc`` / ``femtox`` - static placements, no
  reactive updates; ``eo`` routes edge-only, ``ecnc`` edge+cloud, the rest
  use full cooperative routing.
* ``lfu`` / ``lru`` - classic reactive replacement applied hierarchically:
  a CDN miss inserts the file into both the requesting BS's edge cache and
  the cloud cache, each applying its own eviction rule. Both start cold.
  Each policy builds one per-request step, a closure over its caches and
  bookkeeping; it is the policy's ``serve``, and ``replay`` maps it over
  the requests. LFU keys each resident once in a per-cache victim heap and
  re-keys the stale top only when the cache evicts.

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
from .routing import (Placement, RoutingMode, _cheapest, _check_instance,
                      _serving_table, _source_table)

POLICY_NAMES = ("octopus", "eo", "ecnc", "exmpc", "femtox", "lfu", "lru")

#: Each static baseline's placement function and its evaluation routing.
_STATIC_POLICIES = {
    "eo": (place_eo, RoutingMode.EDGE_ONLY),
    "ecnc": (place_ecnc, RoutingMode.EDGE_CLOUD),
    "exmpc": (place_exmpc, RoutingMode.FULL),
    "femtox": (place_femtox, RoutingMode.FULL),
}


class Policy:
    """A static placement, and the base of every policy. ``placement`` is
    the policy's own cache contents, which only the policy mutates.
    ``sources`` lists the :class:`Source` objects it routes to, the CDN at
    index 0; :meth:`serve` and :meth:`replay` name a server by its index
    there. A policy that changes its placement overrides both, each stating
    its own replay: :class:`OctopusPolicy` in static segments between its
    swaps, :class:`LfuPolicy` and :class:`LruPolicy` through one
    per-request step that is also their :meth:`serve`."""

    def __init__(self, name, placement, topology, routing_mode):
        _check_instance(topology, placement)
        self.name = name
        self.placement = placement
        self.topology = topology
        self.routing_mode = routing_mode
        self.sources, self._order = _source_table(topology, routing_mode)

    def on_request(self, event):
        """Serve one :class:`RequestEvent`: its user's home BS, then
        :meth:`serve`.

        Returns the :class:`Source` used, for metric accounting. Raises
        ``ValueError`` on an unknown user or an out-of-range file; callers
        doing bulk replay skip such events and tally them as malformed.
        """
        bs = self.topology.home_bs(event.user_id)
        self.placement._check_file(event.file_id)
        return self.sources[self.serve(bs, event.file_id)]

    def serve(self, bs, file):
        """Route a request for ``file`` (1..F) from BS ``bs`` (1..R), which
        the caller checks, then apply the policy's update rule, if any.
        Returns the index in :attr:`sources` of the source used; 0 is a CDN
        miss."""
        return _cheapest(self.placement.contents, self._order[bs - 1], file)

    def replay(self, bs, files):
        """:meth:`serve` each request for ``files[i]`` (1..F) from BS
        ``bs[i]`` (1..R, which the caller checks), in order, and return each
        request's :attr:`sources` index as an intp array. A static placement
        answers each request with one lookup in ``routing._serving_table``."""
        return _serving_table(self.placement.contents, self._order,
                              self.placement.num_files)[bs, files]


def _replay_by_step(self, bs, files):
    """:meth:`Policy.replay` through the policy's per-request step,
    ``self.serve``, for a policy that may change its placement on any
    request."""
    return np.fromiter(map(self.serve, bs.tolist(), files.tolist()),
                       dtype=np.intp, count=len(bs))


#: Requests :meth:`OctopusPolicy.replay` scans first for a segment's end;
#: each further scan doubles, so a segment costs about its own length.
_FIRST_SCAN = 256


def _first_marked(marked, files, start):
    """Index of the first request at or after ``start`` whose file is set in
    ``marked``, else ``len(files)``, read in scans of doubling length."""
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
    read-only. :meth:`serve` runs :meth:`on_miss` after each CDN miss;
    :meth:`replay` serves the requests between two swaps as static segments.
    """

    def __init__(self, topology, evaluator):
        self._ev = evaluator
        # the evaluator's own placement, which replacement mutates in place
        super().__init__("octopus", evaluator.placement, topology, RoutingMode.FULL)

    def serve(self, bs, file):
        index = _cheapest(self.placement.contents, self._order[bs - 1], file)
        if index == 0:
            self.on_miss(file)
        return index

    def replay(self, bs, files):
        """:meth:`Policy.replay` in static segments, exact to :meth:`serve`.

        Octopus routes FULL over finite delays, so a cached file is a hit and
        only an uncached file misses. Until a swap, the placement, its
        min-loss copy, utility and gain table stay fixed, and so does the
        set of files whose miss would commit one (``_rcr_triggers``); every
        other miss changes nothing. Each segment is therefore one serving
        table lookup up to and including the first request for such a file,
        whose miss then runs ``_rcr_swaps``; only the swapped files' columns
        of the table are rewritten."""
        served = np.empty(len(files), dtype=np.intp)
        contents, order = self.placement.contents, self._order
        table = _serving_table(contents, order, self.placement.num_files)
        start = 0
        while start < len(files):
            stop = _first_marked(_rcr_triggers(self._ev), files, start)
            served[start:stop + 1] = table[bs[start:stop + 1], files[start:stop + 1]]
            if stop < len(files):
                file = int(files[stop])
                swaps = _rcr_swaps(self._ev, file)
                for touched in {file, *(s["evicted_file"] for s in swaps)}:
                    table[1:, touched] = [_cheapest(contents, caches, touched)
                                          for caches in order]
            start = stop + 1
        return served

    def on_miss(self, file):
        """Reactive replacement for a file just fetched from the CDN."""
        return _rcr_swaps(self._ev, file)


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


class LfuPolicy(Policy):
    """Hierarchical least-frequently-used replacement.

    Every observed request bumps the file's counter at the observing caches
    (edge cache of the home BS, plus the cloud). On a CDN miss the file is
    inserted at both caches, evicting the lowest-count resident, but only if
    the new file's count strictly exceeds the victim's. Counter ties evict
    the least recently used; a cache never holds two files of one last use,
    since each request uses one file. Counters never decay.

    A hit only bumps the counter and the last use; each cache's victim heap
    is re-keyed when the cache evicts (:func:`_lfu_victim`).
    """

    def __init__(self, topology, capacities, num_files):
        super().__init__("lfu", Placement(capacities, num_files), topology,
                         RoutingMode.FULL)
        contents, order = self.placement.contents, self._order
        caps = capacities.as_list()
        self._counts = counts = [[0] * (num_files + 1) for _ in caps]
        self._last_use = last_use = [[0] * (num_files + 1) for _ in caps]
        self._heaps = heaps = [[] for _ in caps]
        seq = 0

        def serve(bs, file):
            nonlocal seq
            seq += 1
            index = _cheapest(contents, order[bs - 1], file)
            for cache in (bs, 0):
                count, used, residents = counts[cache], last_use[cache], contents[cache]
                count[file] += 1
                if file in residents:
                    used[file] = seq
                elif index == 0:
                    heap, key = heaps[cache], (count[file], seq, file)
                    if len(residents) < caps[cache]:
                        heapq.heappush(heap, key)
                    elif heap and count[file] > count[_lfu_victim(heap, count, used)]:
                        residents.remove(heapq.heapreplace(heap, key)[2])
                    else:
                        continue
                    residents.add(file)
                    used[file] = seq
            return index

        # the per-request step, shared by serve and replay
        self.serve = serve

    replay = _replay_by_step

    def counts(self, cache):
        """Observed request counts at one cache (index 0 is unused)."""
        return self._counts[cache]


class LruPolicy(Policy):
    """Hierarchical least-recently-used replacement.

    A request refreshes the file's recency at the observing caches where it
    is resident (edge of the home BS, plus the cloud). A CDN miss inserts
    unconditionally at both, evicting the least recently used resident;
    insertion counts as a use.
    """

    def __init__(self, topology, capacities, num_files):
        super().__init__("lru", Placement(capacities, num_files), topology,
                         RoutingMode.FULL)
        contents, order = self.placement.contents, self._order
        caps = capacities.as_list()
        self._recency = recency = [OrderedDict() for _ in caps]

        def serve(bs, file):
            index = _cheapest(contents, order[bs - 1], file)
            for cache in (bs, 0):
                used = recency[cache]
                if index:
                    if file in used:
                        used.move_to_end(file)
                    continue
                residents = contents[cache]
                if len(residents) >= caps[cache]:
                    if not used:  # a cache of capacity 0
                        continue
                    residents.remove(used.popitem(last=False)[0])
                residents.add(file)
                used[file] = None
            return index

        # the per-request step, shared by serve and replay
        self.serve = serve

    replay = _replay_by_step


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
