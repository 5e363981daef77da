"""Cache placement algorithms.

* :func:`pcd` - proactive greedy distribution: repeatedly add the
  (file, cache) copy with the highest marginal utility until every cache is
  full. Carries a 1/2 approximation guarantee against the optimum.
* :func:`rcr` - reactive replacement after a cache miss: up to R+1 times,
  swap the minimum-marginal-loss cached copy for the newly fetched file,
  stopping at the first swap that fails to strictly increase utility.
* :func:`brute_force_optimal` - exhaustive oracle for desk-scale instances,
  used to ground-truth the greedy's approximation ratio.
* ``place_eo`` / ``place_ecnc`` / ``place_exmpc`` / ``place_femtox`` -
  static baseline placements.

All tie-breaking is total (best value first, then lowest file index, then
lowest cache index), so identical inputs produce identical placements.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import combinations

from .errors import OracleSizeError
from .routing import Placement, RoutingMode, UtilityEvaluator

#: Guard on the number of placements brute_force_optimal may enumerate.
ORACLE_ENUMERATION_LIMIT = 10_000_000


@dataclass
class PlacementAlgorithmReport:
    """Outcome of one placement-algorithm run.

    ``utility_trace`` starts at the initial utility and appends the utility
    after every committed step, so it is non-decreasing for the greedy and
    strictly increasing across reactive swaps. ``steps`` holds one record
    per committed step for export.
    """

    placement: Placement
    iterations: int
    utility_trace: list
    steps: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def final_utility(self):
        return self.utility_trace[-1]

    def to_records(self):
        return [dict(step) for step in self.steps]


def _effective_sizes(capacities, num_files):
    """Per-cache fill targets, clamped to the catalog size."""
    sizes = []
    warnings = []
    for r, cap in enumerate(capacities.as_list()):
        if cap > num_files:
            warnings.append(f"cache {r} capacity {cap} clamped to catalog size {num_files}")
            cap = num_files
        sizes.append(cap)
    return sizes, warnings


def pcd(topology, catalog, popularity, capacities, mode=RoutingMode.FULL):
    """Proactive cache distribution: greedy submodular placement.

    Starts from an empty placement and, at each iteration, adds the
    (file, cache) copy with the largest marginal utility among caches that
    still have room, until every cache is full (capacities above the catalog
    size are clamped, with a warning record). Uses lazy re-evaluation of
    stale marginals, which is exact because gains only shrink as the
    placement grows.

    Parameters
    ----------
    topology : Topology
        Must carry the user population (utilities are user-weighted).
    catalog : Catalog
    popularity : Popularity
    capacities : CacheCapacities
    mode : RoutingMode
        Routing assumed while valuing copies. FULL is the cooperative
        hierarchy; EDGE_CLOUD reproduces placement that ignores the
        neighbor U-turn.

    Returns
    -------
    PlacementAlgorithmReport
    """
    if popularity.num_files != catalog.num_files:
        raise ValueError("popularity length does not match catalog")
    sizes, warnings = _effective_sizes(capacities, catalog.num_files)
    placement = Placement(capacities, catalog.num_files)
    ev = UtilityEvaluator(topology, popularity, placement, mode=mode)

    # Initial marginals on the empty placement: worth of a copy of file f in
    # cache r is p_f * sum_b count_b * t[b, r].
    weight_per_cache = ev.counts @ ev.t_table  # (R+1,)
    probs = ev.probs
    heap = []
    for r, size in enumerate(sizes):
        if size == 0:
            continue
        w = weight_per_cache[r]
        for j in range(catalog.num_files):
            heap.append((-(probs[j] * w), j + 1, r, 0))
    heapq.heapify(heap)

    target = sum(sizes)
    utility_trace = [ev.utility()]
    steps = []
    selected = 0
    while selected < target and heap:
        neg_gain, file, cache, version = heapq.heappop(heap)
        if ev.placement.cache_size(cache) >= sizes[cache]:
            continue
        if ev.placement.contains(file, cache):
            continue
        if version != selected:
            gain = ev._gain(file, cache)
            key = (-gain, file, cache)
            if heap and key > heap[0][:3]:
                heapq.heappush(heap, (*key, selected))
                continue
        else:
            gain = -neg_gain
        ev.add(file, cache)
        selected += 1
        utility_trace.append(utility_trace[-1] + gain)
        steps.append({"iteration": selected, "file": file, "cache": cache,
                      "gain": gain, "utility": utility_trace[-1]})
    return PlacementAlgorithmReport(placement=ev.snapshot(), iterations=selected,
                                    utility_trace=utility_trace,
                                    steps=steps, warnings=warnings)


def _rcr_swaps(ev, new_file):
    """Run the reactive replacement loop against an evaluator in place.

    Returns the list of committed swap records. The loop runs at most R+1
    times: find the cached copy with the smallest marginal loss, and swap
    the new file into its slot if and only if that strictly increases
    utility; otherwise stop. Stop as well when the smallest-loss copy is
    the new file's own: swapping it for itself changes nothing, and float
    noise could otherwise make that no-op look like a strict gain.
    """
    steps = []
    for attempt in range(ev.num_bs + 1):
        worst = ev.min_loss_element()
        if worst is None or worst[1] == new_file:
            break
        loss, evict_file, cache = worst
        ev.remove(evict_file, cache)
        gain = 0.0 if ev.placement.contains(new_file, cache) else ev._gain(new_file, cache)
        if gain > loss:
            ev.add(new_file, cache)
            steps.append({"iteration": attempt + 1, "file": new_file,
                          "cache": cache, "evicted_file": evict_file,
                          "gain": gain - loss, "utility": ev.utility()})
        else:
            ev.add(evict_file, cache)
            break
    return steps


def rcr(placement, new_file, topology, popularity, mode=RoutingMode.FULL):
    """Reactive cache replacement after a miss on ``new_file``.

    The new file must not be cached anywhere (it was just fetched from the
    CDN). Utility never decreases; every committed swap strictly increases
    it; capacities are preserved.

    Returns
    -------
    PlacementAlgorithmReport
        ``iterations`` counts committed swaps.
    """
    if not 1 <= new_file <= placement.num_files:
        raise ValueError(f"file index {new_file} outside 1..{placement.num_files}")
    if placement.cached_anywhere(new_file):
        raise ValueError(f"file {new_file} is already cached")
    ev = UtilityEvaluator(topology, popularity, placement, mode=mode)
    before = ev.utility()
    steps = _rcr_swaps(ev, new_file)
    trace = [before] + [s["utility"] for s in steps]
    return PlacementAlgorithmReport(placement=ev.snapshot(), iterations=len(steps),
                                    utility_trace=trace, steps=steps)


def brute_force_optimal(topology, catalog, popularity, capacities,
                        mode=RoutingMode.FULL, limit=ORACLE_ENUMERATION_LIMIT):
    """Exhaustively enumerate feasible placements and return an optimum.

    Every cache is filled to min(capacity, F); by monotonicity this loses
    nothing against partially filled placements. Among equal-utility optima
    the lexicographically smallest serialized placement wins. Instances
    whose enumeration count exceeds ``limit`` are rejected.

    Raises
    ------
    OracleSizeError
        When the product of per-cache combination counts exceeds the guard.
    """
    F = catalog.num_files
    if popularity.num_files != F:
        raise ValueError("popularity length does not match catalog")
    sizes, _ = _effective_sizes(capacities, F)
    total = math.prod(math.comb(F, size) for size in sizes)
    if total > limit:
        raise OracleSizeError(
            f"instance needs {total} placements, above the enumeration bound {limit}")

    ev = UtilityEvaluator(topology, popularity, Placement(capacities, F), mode=mode)
    files = range(1, F + 1)
    best_utility = -1.0
    best = None

    def descend(cache, running):
        nonlocal best_utility, best
        if cache == len(sizes):
            if running > best_utility:
                best_utility = running
                best = ev.snapshot()
            return
        for combo in combinations(files, sizes[cache]):
            delta = 0.0
            for f in combo:
                delta += ev._gain(f, cache)
                ev.add(f, cache)
            descend(cache + 1, running + delta)
            for f in combo:
                ev.remove(f, cache)

    descend(0, ev.utility())
    return best


def top_popular(popularity, k):
    """The k most popular file indices; popularity ties break toward the
    lower index."""
    order = sorted(range(1, popularity.num_files + 1),
                   key=lambda f: (-popularity.probs[f - 1], f))
    return order[:max(0, k)]


def place_eo(topology, catalog, popularity, capacities):
    """Edge-only baseline: each edge cache independently stores its most
    popular files; the cloud cache stays empty. Meant to be evaluated under
    EDGE_ONLY routing (no cloud, no neighbor access)."""
    sizes, _ = _effective_sizes(capacities, catalog.num_files)
    placement = Placement(capacities, catalog.num_files)
    for r in range(1, topology.num_bs + 1):
        for f in top_popular(popularity, sizes[r]):
            placement.add(f, r)
    return placement


def place_ecnc(topology, catalog, popularity, capacities):
    """Edge+cloud non-cooperative baseline: every cache, cloud included,
    independently stores the most popular files (duplication allowed).
    Meant to be evaluated under EDGE_CLOUD routing (no neighbor access)."""
    sizes, _ = _effective_sizes(capacities, catalog.num_files)
    placement = Placement(capacities, catalog.num_files)
    for f in top_popular(popularity, sizes[0]):
        placement.add(f, 0)
    for r in range(1, topology.num_bs + 1):
        for f in top_popular(popularity, sizes[r]):
            placement.add(f, r)
    return placement


def place_exmpc(topology, catalog, popularity, capacities):
    """Exclusively-most-popular baseline: edges store the most popular
    files; the cloud stores the most popular files not already held by any
    edge cache (second tier). Evaluated under FULL cooperative routing."""
    sizes, _ = _effective_sizes(capacities, catalog.num_files)
    placement = Placement(capacities, catalog.num_files)
    in_edges = set()
    for r in range(1, topology.num_bs + 1):
        for f in top_popular(popularity, sizes[r]):
            placement.add(f, r)
            in_edges.add(f)
    remaining = [f for f in top_popular(popularity, catalog.num_files)
                 if f not in in_edges]
    for f in remaining[:sizes[0]]:
        placement.add(f, 0)
    return placement


def place_femtox(topology, catalog, popularity, capacities):
    """Helper-style greedy baseline: identical to :func:`pcd` except copies
    are valued without the neighbor U-turn (each edge cache only serves its
    own cell, plus the cloud). Evaluated under FULL cooperative routing."""
    return pcd(topology, catalog, popularity, capacities,
               mode=RoutingMode.EDGE_CLOUD).placement
