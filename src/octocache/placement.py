"""Cache placement algorithms.

* :func:`pcd` - proactive greedy distribution: repeatedly add the
  (file, cache) copy with the highest marginal utility until every cache is
  full. Carries a 1/2 approximation guarantee against the optimum.
* :func:`rcr` - reactive replacement after a cache miss: up to R+1 times,
  swap the minimum-marginal-loss cached copy for the newly fetched file,
  stopping at the first swap that fails to raise utility by more than
  ``SWAP_MIN_RELATIVE_GAIN`` of it.
* :func:`brute_force_optimal` - exhaustive oracle for desk-scale instances,
  used to ground-truth the greedy's approximation ratio.
* ``place_eo`` / ``place_ecnc`` / ``place_exmpc`` / ``place_femtox`` -
  static baseline placements.

All tie-breaking is total (best value first, then lowest file index, then
lowest cache index), so identical inputs produce identical placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import OracleSizeError
from .routing import Placement, RoutingMode, UtilityEvaluator

#: Guard on the number of placements brute_force_optimal may enumerate.
ORACLE_ENUMERATION_LIMIT = 10_000_000

#: A reactive swap commits only when its net gain exceeds this fraction of
#: the utility: swaps between copies of equal worth differ by float noise.
SWAP_MIN_RELATIVE_GAIN = 1e-9


@dataclass
class PlacementAlgorithmReport:
    """Outcome of one placement-algorithm run.

    ``utility_trace`` starts at the initial utility and appends the utility
    after every committed step, so it is non-decreasing for the greedy and
    strictly increasing across reactive swaps. ``steps`` holds one plain
    dict per committed step.
    """

    placement: Placement
    iterations: int
    utility_trace: list
    steps: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def final_utility(self):
        return self.utility_trace[-1]


def _effective_sizes(capacities, num_files):
    """Per-cache fill targets, clamped to the catalog size, and one warning
    per clamped cache."""
    caps = capacities.as_list()
    warnings = [f"cache {r} capacity {cap} clamped to catalog size {num_files}"
                for r, cap in enumerate(caps) if cap > num_files]
    return [min(cap, num_files) for cap in caps], warnings


def pcd(topology, catalog, popularity, capacities, mode=RoutingMode.FULL):
    """Proactive cache distribution: greedy submodular placement.

    Starts from an empty placement and, at each iteration, adds the
    (file, cache) copy with the largest marginal utility among caches that
    still have room, until every cache is full (capacities above the catalog
    size are clamped, with a warning record). Each step is an argmax over
    the evaluator's exact gain table; an add changes only its own file's
    gains, so only that row is recomputed.

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
    ev = UtilityEvaluator(topology, popularity, Placement(capacities, catalog.num_files),
                          mode=mode)

    # -inf marks held copies and full caches; argmax over the row maxima,
    # then within the row, breaks ties toward the lower file, then cache
    closed = np.array(sizes) == 0
    gains = np.where(closed, -np.inf, ev._gain_table())
    row_best = gains.max(axis=1)
    utility_trace = [ev.utility()]
    steps = []
    for selected in range(1, sum(sizes) + 1):
        j = int(row_best.argmax())
        cache = int(gains[j].argmax())
        gain = float(gains[j, cache])
        ev.add(j + 1, cache)
        utility_trace.append(utility_trace[-1] + gain)
        steps.append({"iteration": selected, "file": j + 1, "cache": cache,
                      "gain": gain, "utility": utility_trace[-1]})
        if ev.placement.cache_size(cache) == sizes[cache]:
            closed[cache] = True
            gains[:, cache] = -np.inf
            row_best = gains.max(axis=1)
        gains[j] = np.where(closed | ev.mask[:, j], -np.inf, ev._gain_table()[j])
        row_best[j] = gains[j].max()
    return PlacementAlgorithmReport(placement=ev.placement, iterations=len(steps),
                                    utility_trace=utility_trace,
                                    steps=steps, warnings=warnings)


def _rcr_swaps(ev, new_file):
    """Run the reactive replacement loop against an evaluator in place.

    Returns the list of committed swap records. The loop runs at most R+1
    times: find the cached copy with the smallest marginal loss, and swap
    the new file into its slot if and only if that raises utility by more
    than ``SWAP_MIN_RELATIVE_GAIN`` of the utility before the swap;
    otherwise stop. The new file's gain does not depend on the evicted
    copy, so it is read first and a rejected swap mutates nothing; as the
    evaluator keeps its min-loss copy between mutations, a miss that swaps
    nothing costs one gain-table read. A copy the new file already holds
    has gain exactly 0, so the loop never swaps the new file for itself.
    """
    steps = []
    for attempt in range(ev.num_bs + 1):
        worst = ev.min_loss_element()
        if worst is None:
            break
        loss, evict_file, cache = worst
        gain = float(ev._gain_table()[new_file - 1, cache])
        # utility() costs an (R, F) product, so it is read only for a gain
        if gain <= loss or gain - loss <= SWAP_MIN_RELATIVE_GAIN * ev.utility():
            break
        ev.remove(evict_file, cache)
        ev.add(new_file, cache)
        steps.append({"iteration": attempt + 1, "file": new_file,
                      "cache": cache, "evicted_file": evict_file,
                      "gain": gain - loss, "utility": ev.utility()})
    return steps


def rcr(placement, new_file, topology, popularity, mode=RoutingMode.FULL):
    """Reactive cache replacement after a miss on ``new_file``.

    The new file must not be cached anywhere (it was just fetched from the
    CDN). Utility never decreases; every committed swap raises it by more
    than ``SWAP_MIN_RELATIVE_GAIN`` of its value before the swap;
    capacities are preserved. ``OctopusPolicy`` runs the same loop per miss.

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
    trace = [ev.utility()]
    steps = _rcr_swaps(ev, new_file)
    trace += [s["utility"] for s in steps]
    return PlacementAlgorithmReport(placement=ev.placement, iterations=len(steps),
                                    utility_trace=trace, steps=steps)


def brute_force_optimal(topology, catalog, popularity, capacities,
                        mode=RoutingMode.FULL):
    """Exhaustively enumerate feasible placements and return an optimum.

    Every cache is filled to min(capacity, F); by monotonicity this loses
    nothing against partially filled placements. Among equal-utility optima
    the lexicographically smallest serialized placement wins. Instances
    whose enumeration count exceeds ``ORACLE_ENUMERATION_LIMIT`` are
    rejected.

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
    if total > ORACLE_ENUMERATION_LIMIT:
        raise OracleSizeError(f"instance needs {total} placements, above the "
                              f"enumeration bound {ORACLE_ENUMERATION_LIMIT}")

    ev = UtilityEvaluator(topology, popularity, Placement(capacities, F), mode=mode)
    files = range(1, F + 1)
    best_utility = -1.0
    best = None

    def descend(cache):
        nonlocal best_utility, best
        if cache == len(sizes):
            value = ev.utility()
            if value > best_utility:
                best_utility = value
                best = ev.placement.copy()
            return
        for combo in combinations(files, sizes[cache]):
            for f in combo:
                ev.add(f, cache)
            descend(cache + 1)
            for f in combo:
                ev.remove(f, cache)

    descend(0)
    return best


def top_popular(popularity, k):
    """The k most popular file indices; popularity ties break toward the
    lower index."""
    return (np.argsort(-popularity.as_array(), kind="stable")[:max(0, k)] + 1).tolist()


def _edges_most_popular(topology, catalog, popularity, capacities):
    """A placement whose edge caches each hold their most popular files,
    with the popularity ranking and the per-cache fill targets."""
    sizes, _ = _effective_sizes(capacities, catalog.num_files)
    ranked = top_popular(popularity, catalog.num_files)
    placement = Placement(capacities, catalog.num_files)
    for r in range(1, topology.num_bs + 1):
        for f in ranked[:sizes[r]]:
            placement.add(f, r)
    return placement, ranked, sizes


def place_eo(topology, catalog, popularity, capacities):
    """Edge-only baseline: each edge cache independently stores its most
    popular files; the cloud cache stays empty. Meant to be evaluated under
    EDGE_ONLY routing (no cloud, no neighbor access)."""
    return _edges_most_popular(topology, catalog, popularity, capacities)[0]


def place_ecnc(topology, catalog, popularity, capacities):
    """Edge+cloud non-cooperative baseline: every cache, cloud included,
    independently stores the most popular files (duplication allowed).
    Meant to be evaluated under EDGE_CLOUD routing (no neighbor access)."""
    placement, ranked, sizes = _edges_most_popular(topology, catalog, popularity,
                                                   capacities)
    for f in ranked[:sizes[0]]:
        placement.add(f, 0)
    return placement


def place_exmpc(topology, catalog, popularity, capacities):
    """Exclusively-most-popular baseline: edges store the most popular
    files; the cloud stores the most popular files not already held by any
    edge cache (second tier). Evaluated under FULL cooperative routing."""
    placement, ranked, sizes = _edges_most_popular(topology, catalog, popularity,
                                                   capacities)
    # each edge holds a prefix of the ranking; no edge holds what follows the longest
    start = max(sizes[1:])
    for f in ranked[start:start + sizes[0]]:
        placement.add(f, 0)
    return placement


def place_femtox(topology, catalog, popularity, capacities):
    """Helper-style greedy baseline: identical to :func:`pcd` except copies
    are valued without the neighbor U-turn (each edge cache only serves its
    own cell, plus the cloud). Evaluated under FULL cooperative routing."""
    return pcd(topology, catalog, popularity, capacities,
               mode=RoutingMode.EDGE_CLOUD).placement
