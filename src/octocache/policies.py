"""Cache-management policies driven by the request stream.

Policies resolve each request against their current cache contents (the
routing mode is a property of the policy) and update state on misses:

* ``octopus``  - greedy warm placement, then reactive replacement on every
  miss; full cooperative routing. Without replacement it is a static
  placement.
* ``eo`` / ``ecnc`` / ``exmpc`` / ``femtox`` - static placements, no
  reactive updates; ``eo`` routes edge-only, ``ecnc`` edge+cloud, the rest
  use full cooperative routing.
* ``lfu`` / ``lru`` - classic reactive replacement applied hierarchically:
  a CDN miss inserts the file into both the requesting BS's edge cache and
  the cloud cache, each applying its own eviction rule. Both start cold.

Observation scopes for the reactive bookkeeping: an edge cache sees the
requests of the users homed at its BS; the cloud cache (managed centrally)
sees every request.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from .placement import _rcr_swaps, pcd, place_ecnc, place_eo, place_exmpc, place_femtox
from .routing import Placement, RoutingMode, UtilityEvaluator, _cheapest, _source_table

POLICY_NAMES = ("octopus", "eo", "ecnc", "exmpc", "femtox", "lfu", "lru")

#: Routing restriction of each static baseline during evaluation.
POLICY_ROUTING = {
    "eo": RoutingMode.EDGE_ONLY,
    "ecnc": RoutingMode.EDGE_CLOUD,
    "exmpc": RoutingMode.FULL,
    "femtox": RoutingMode.FULL,
}


class Policy:
    """Base class: route a request, update internal state, report the source.

    ``placement`` is the policy's own cache contents, which only the policy
    mutates. The returned :class:`Source` objects are built once per policy.
    """

    name = "base"

    def __init__(self, topology, routing_mode, placement):
        self.topology = topology
        self.routing_mode = routing_mode
        self.placement = placement
        self._order, self._cdn = _source_table(topology, routing_mode)

    def _route(self, event):
        """Resolve the home BS, check the file index, and route against the
        current placement; returns ``(bs, file, source)``."""
        bs = self.topology.home_bs(event.user_id)
        file = event.file_id
        if not 1 <= file <= self.placement.num_files:
            raise ValueError(f"file index {file} outside 1..{self.placement.num_files}")
        return bs, file, _cheapest(self.placement.contents, self._order[bs - 1],
                                   self._cdn, file)

    def on_request(self, event):
        """Serve one request and apply the policy's update rule.

        Returns the :class:`Source` used, for metric accounting. Raises
        ``ValueError`` on an unknown user or an out-of-range file; callers
        doing bulk replay skip such events and tally them as malformed.
        """
        raise NotImplementedError


class StaticPlacementPolicy(Policy):
    """A fixed placement; requests never change the caches."""

    def __init__(self, name, placement, topology, routing_mode):
        super().__init__(topology, routing_mode, placement)
        self.name = name

    def on_request(self, event):
        return self._route(event)[2]


class OctopusPolicy(Policy):
    """Greedy warm placement plus reactive replacement on each miss.

    The popularity snapshot is fixed when the policy is built; replacement
    decisions during replay reuse it unchanged. Hits are read-only.
    """

    name = "octopus"

    def __init__(self, topology, popularity, placement):
        self._ev = UtilityEvaluator(topology, popularity, placement,
                                    mode=RoutingMode.FULL)
        # the evaluator's own copy, which replacement mutates in place
        super().__init__(topology, RoutingMode.FULL, self._ev.placement)

    def on_request(self, event):
        _, file, src = self._route(event)
        if src is self._cdn:
            self.on_miss(file)
        return src

    def on_miss(self, file):
        """Reactive replacement for a file just fetched from the CDN."""
        if self.placement.cached_anywhere(file):
            raise ValueError(f"file {file} is already cached")
        return _rcr_swaps(self._ev, file)


class _LfuBookkeeping:
    """Per-cache LFU state: request counters, recency for tie-breaks, and a
    lazy min-heap over (count, last_use, file) keys of resident files."""

    __slots__ = ("counts", "last_use", "heap")

    def __init__(self, num_files):
        self.counts = [0] * (num_files + 1)
        self.last_use = {}
        self.heap = []

    def observe(self, file, seq, resident):
        self.counts[file] += 1
        if resident:
            self.last_use[file] = seq
            heapq.heappush(self.heap, (self.counts[file], seq, file))

    def note_inserted(self, file, seq):
        self.last_use[file] = seq
        heapq.heappush(self.heap, (self.counts[file], seq, file))

    def victim(self, residents):
        """Resident file with the lowest (count, last_use, file) key."""
        while self.heap:
            count, seq, file = self.heap[0]
            if (file in residents and self.counts[file] == count
                    and self.last_use.get(file) == seq):
                return file
            heapq.heappop(self.heap)
        return None


class LfuPolicy(Policy):
    """Hierarchical least-frequently-used replacement.

    Every observed request bumps the file's counter at the observing caches
    (edge cache of the home BS, plus the cloud). On a CDN miss the file is
    inserted at both caches, evicting the lowest-count resident, but only if
    the new file's count strictly exceeds the victim's. Counter ties evict
    the least recently used, then the lowest file index. Counters never
    decay.
    """

    name = "lfu"

    def __init__(self, topology, capacities, num_files):
        super().__init__(topology, RoutingMode.FULL, Placement(capacities, num_files))
        self._books = [_LfuBookkeeping(num_files)
                       for _ in range(topology.num_bs + 1)]
        self._seq = 0

    def counts(self, cache):
        """Observed request counts at one cache (index 0 is unused)."""
        return self._books[cache].counts

    def on_request(self, event):
        bs, file, src = self._route(event)
        self._seq += 1
        for cache in (bs, 0):
            self._books[cache].observe(file, self._seq,
                                       self.placement.contains(file, cache))
        if src is self._cdn:
            self._admit(bs, file)
            self._admit(0, file)
        return src

    def _admit(self, cache, file):
        caps = self.placement.capacities.as_list()
        if caps[cache] == 0 or self.placement.contains(file, cache):
            return
        book = self._books[cache]
        if self.placement.cache_size(cache) < caps[cache]:
            self.placement.add(file, cache)
            book.note_inserted(file, self._seq)
            return
        victim = book.victim(self.placement.contents[cache])
        if victim is not None and book.counts[file] > book.counts[victim]:
            self.placement.remove(victim, cache)
            self.placement.add(file, cache)
            book.note_inserted(file, self._seq)


class LruPolicy(Policy):
    """Hierarchical least-recently-used replacement.

    A request refreshes the file's recency at the observing caches where it
    is resident (edge of the home BS, plus the cloud). A CDN miss inserts
    unconditionally at both, evicting the least recently used resident;
    insertion counts as a use.
    """

    name = "lru"

    def __init__(self, topology, capacities, num_files):
        super().__init__(topology, RoutingMode.FULL, Placement(capacities, num_files))
        self._recency = [OrderedDict() for _ in range(topology.num_bs + 1)]

    def on_request(self, event):
        bs, file, src = self._route(event)
        for cache in (bs, 0):
            if self.placement.contains(file, cache):
                self._recency[cache].move_to_end(file)
        if src is self._cdn:
            self._insert(bs, file)
            self._insert(0, file)
        return src

    def _insert(self, cache, file):
        caps = self.placement.capacities.as_list()
        if caps[cache] == 0:
            return
        if self.placement.cache_size(cache) >= caps[cache]:
            evicted, _ = self._recency[cache].popitem(last=False)
            self.placement.remove(evicted, cache)
        self.placement.add(file, cache)
        self._recency[cache][file] = None


def make_policy(name, topology, catalog, popularity, capacities, assignment,
                rcr_enabled=True):
    """Build a replay-ready policy by its contract name.

    The policy runs on ``topology.with_users(assignment)``. ``octopus``
    runs the greedy warm placement here, and without ``rcr_enabled`` keeps
    it as a static placement under full routing; the static baselines
    compute their placements; ``lfu``/``lru`` start cold.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}")
    topology = topology.with_users(assignment)
    if name == "octopus":
        placement = pcd(topology, catalog, popularity, capacities).placement
        if not rcr_enabled:
            return StaticPlacementPolicy(name, placement, topology, RoutingMode.FULL)
        return OctopusPolicy(topology, popularity, placement)
    if name == "lfu":
        return LfuPolicy(topology, capacities, catalog.num_files)
    if name == "lru":
        return LruPolicy(topology, capacities, catalog.num_files)
    builder = {"eo": place_eo, "ecnc": place_ecnc,
               "exmpc": place_exmpc, "femtox": place_femtox}[name]
    placement = builder(topology, catalog, popularity, capacities)
    return StaticPlacementPolicy(name, placement, topology, POLICY_ROUTING[name])
