"""Cache placement algorithms.

* :func:`pcd` - proactive greedy distribution: repeatedly add the
  (file, cache) copy with the highest marginal utility until every cache is
  full. Carries a 1/2 approximation guarantee against the optimum. It runs
  in rounds that commit whole chains of one file's successive best copies,
  exactly as the one-copy-at-a-time greedy would (see :func:`pcd`).
* :func:`rcr` - reactive replacement after a cache miss: up to R+1 times,
  swap the minimum-marginal-loss cached copy for the newly fetched file,
  stopping at the first swap that fails to raise utility by more than
  ``SWAP_MIN_RELATIVE_GAIN`` of it.
* :func:`brute_force_optimal` - exhaustive oracle for desk-scale instances,
  used to ground-truth the greedy's approximation ratio.
* ``place_eo`` / ``place_ecnc`` / ``place_exmpc`` / ``place_femtox`` -
  static baseline placements.

All tie-breaking is total (best value first, then lowest file, then lowest
cache), so identical inputs produce identical placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import OracleSizeError
from .routing import Placement, RoutingMode, UtilityEvaluator, _check_instance

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


def _best_open(gains, shut):
    """Per row, the first cache of largest gain among those not ``shut``,
    and that gain (-inf when every cache is shut)."""
    gains = np.where(shut, -np.inf, gains)
    cache = gains.argmax(axis=1)
    return cache, gains[np.arange(cache.size), cache]


def _fill_threshold(cache, gain, room):
    """A round's threshold from the frontier copies ``(cache, gain)``: the
    largest, over caches k holding at least ``room[k] > 0`` of them, of the
    ``room[k]``-th largest gain at k; the smallest gain when no cache does.
    Each such gain is at least the smallest, so that is the start value."""
    threshold = gain.min()
    for k in np.flatnonzero(room):
        at = gain[cache == k]
        rank = at.size - room[k]  # the room[k]-th largest's index in ascending order
        if rank >= 0:
            threshold = max(threshold, np.partition(at, rank)[rank])
    return threshold


def _open_choice(ev, closed):
    """The next copy of every holder set S while the caches ``closed`` marks
    are full, from row S of the evaluator's gain sums table: ``shut[S]``,
    the caches S holds or ``closed`` marks; ``best[S]``, the first cache
    not shut of largest sum; ``top[S]``, that sum; and ``second[S]``, the
    largest sum below it of a cache not shut. ``top`` is nan when every
    cache is shut, ``second`` when no such sum lies below ``top``."""
    shut = ev._sets.T | closed
    sums = np.where(shut, -np.inf, ev._sums_table(1))
    best = sums.argmax(axis=1)
    top = sums[np.arange(best.size), best]
    second = np.where(sums < top[:, None], sums, -np.inf).max(axis=1)
    top, second = (np.where(v > -np.inf, v, np.nan) for v in (top, second))
    return shut, best, top, second


def _frontier(ev, files, codes, choice):
    """Each file's best open copy (cache, gain), file ``files[n]`` having
    holder set ``codes[n]``: the set's ``best`` in ``choice``
    (:func:`_open_choice`) and the gain ``p_j * top``, bitwise that copy's
    value in ``ev._marginals``. As ``p_j * x`` is monotone in x for
    ``p_j >= 0``, another open copy gains as much only if ``p_j * second
    == p_j * top``, as for ``p_j = 0`` and subnormal ``p_j``; such files
    take the first maximum of their own ``ev._marginals`` row. A set with
    every cache shut gains ``-inf`` (its nan products compare unequal)."""
    shut, best, top, second = choice
    probs = ev.probs[files]
    cache = best[codes]
    gain = probs * top[codes]
    near = np.flatnonzero(probs * second[codes] == gain)
    gain[np.isnan(gain)] = -np.inf
    if near.size:
        cache[near], gain[near] = _best_open(ev._marginals(files[near], codes[near]),
                                             shut[codes[near]])
    return cache, gain


def _chains(ev, files, cache, gain, choice, threshold):
    """Each file's chain of successive best open copies, starting from its
    frontier copy ``(cache, gain)`` on the evaluator's placement, for as
    long as the gains stay at or above ``threshold``; ``choice`` is the
    round's :func:`_open_choice`.

    Returns the entries as arrays (file, step, cache, gain)."""
    codes = ev.codes[files]
    entries = []
    step = 0
    while files.size:
        entries.append((files, np.full(files.size, step), cache, gain))
        codes = codes | ev._bits[cache]
        cache, gain = _frontier(ev, files, codes, choice)
        keep = gain >= threshold
        files, codes, cache, gain = files[keep], codes[keep], cache[keep], gain[keep]
        step += 1
    return [np.concatenate(column) for column in zip(*entries)]


def pcd(topology, catalog, popularity, capacities, mode=RoutingMode.FULL):
    """Proactive cache distribution: greedy submodular placement.

    The greedy starts from an empty placement and, at each step, adds the
    (file, cache) copy with the largest marginal utility among caches that
    still have room, ties going to the lower file, then the lower cache,
    until every cache is full (capacities above the catalog size are
    clamped, with a warning record).

    It is computed in rounds rather than one argmax per copy. A copy's
    gain depends only on its own file's cached copies, so while no cache
    closes, the greedy merges F independent chains: each file's successive
    best open copies. A copy's gain is ``p_j * G[S, k]``, with S the file's
    holder set and ``G`` the evaluator's table of 2^(R+1) gain sums, so the
    best open cache is picked once per holder set (:func:`_open_choice`),
    and each file reads its set's choice, exactly (:func:`_frontier`).
    Each round

    1. takes every live file's frontier (best open copy) from that choice;
    2. sets the threshold ``T`` from the first cache that can fill: for
       each open cache k holding at least ``room[k]`` frontier copies, the
       ``room[k]``-th largest frontier gain at k, and ``T`` the largest of
       these; when no cache holds that many, the smallest frontier gain;
    3. grows the chains of the frontier files at or above ``T``, step by
       step in bulk, while each step's gain stays at or above ``T``;
    4. sorts the entries by (-gain, file, step), the greedy's own order;
    5. commits them in that order up to and including the first one that
       fills a cache, or all of them if none does, with one
       ``UtilityEvaluator.add_copies``; the evaluator's placement is the
       result, and its holder-set codes follow the copies added.

    This is exactly the one-copy-at-a-time greedy. Along a chain the gains
    never increase, bit for bit: each step adds a holder to the file's
    holder set, so ``max(t - rival, 0)`` only falls as the rival, the holders'
    best t-value, rises; every operation after it rounds monotonically,
    and ``UtilityEvaluator._marginals`` adds BSs in a fixed order. So the
    grown entries are every entry at or above ``T``, ties at ``T``
    included, and every entry not grown has a gain below ``T`` and sorts
    after every grown one: the grown entries are a prefix of the greedy's
    order. The cache k that sets ``T`` has ``room[k]`` frontier copies at or
    above it, all grown, so some cache fills inside the prefix, and that
    first fill ends the round before a closed cache is offered. As in
    Minoux's accelerated greedy, entries that cannot be chosen before that
    fill are mostly never valued.

    Rounds are few: each round closes a cache, except when no cache holds
    ``room[k]`` frontier copies; then every live file is grown, and unless
    some cache fills, every live file commits a copy. Either happens at
    most R+1 times. When the room left is at most the number of live files,
    some cache holds at least its room in frontier copies (pigeonhole), so
    the first case applies, and ``T`` is at least the n-th largest frontier
    gain, with n the room left: no round grows more entries than that
    coarser threshold would.

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
        Built from ``_greedy``'s commits; ``make_policy`` calls ``_greedy`` itself.
    """
    ev, chosen_files, chosen_caches, chosen_gains, warnings = _greedy(
        topology, catalog, popularity, capacities, mode)
    # from the empty placement's 0; cumsum adds in order, as a running total would
    utility_trace = np.cumsum([0.0, *chosen_gains]).tolist()
    steps = [{"iteration": i, "file": f, "cache": c, "gain": g, "utility": u}
             for i, (f, c, g, u) in enumerate(zip(chosen_files, chosen_caches,
                                                  chosen_gains, utility_trace[1:]),
                                              start=1)]
    return PlacementAlgorithmReport(placement=ev.placement, iterations=len(steps),
                                    utility_trace=utility_trace,
                                    steps=steps, warnings=warnings)


def _greedy(topology, catalog, popularity, capacities, mode):
    """:func:`pcd`'s rounds on a new evaluator for ``mode``: returns it filled,
    the committed files, caches and gains in greedy order, and the warnings."""
    num_files = catalog.num_files
    sizes, warnings = _effective_sizes(capacities, num_files)
    ev = UtilityEvaluator(topology, popularity, Placement(capacities, num_files),
                          mode=mode)
    room = np.array(sizes)
    every = np.arange(num_files)
    chosen_files, chosen_caches, chosen_gains = [], [], []
    while room.any():
        choice = _open_choice(ev, room == 0)
        cache, gain = _frontier(ev, every, ev.codes, choice)
        live = np.flatnonzero(gain > -np.inf)
        threshold = _fill_threshold(cache[live], gain[live], room)
        files = live[gain[live] >= threshold]
        file, step, cache, gain = _chains(ev, files, cache[files], gain[files],
                                          choice, threshold)
        order = np.lexsort((step, file, -gain))
        file, cache, gain = file[order], cache[order], gain[order]
        end = file.size
        for k in np.flatnonzero(room):
            at = np.flatnonzero(cache == k)
            if at.size >= room[k]:
                end = min(end, int(at[room[k] - 1]) + 1)
        file, cache, gain = file[:end], cache[:end], gain[:end]
        chosen_files += (file + 1).tolist()
        chosen_caches += cache.tolist()
        chosen_gains += gain.tolist()
        ev.add_copies(file + 1, cache)
        room -= np.bincount(cache, minlength=room.size)
    return ev, chosen_files, chosen_caches, chosen_gains, warnings


def _swap_commits(ev, gain, loss):
    """RCR's commit rule: swapping a copy of marginal gain ``gain`` into the
    slot of the evaluator's min-loss copy, of marginal loss ``loss``, commits
    when ``gain > loss`` and ``gain - loss`` exceeds
    ``SWAP_MIN_RELATIVE_GAIN`` of the utility. ``gain`` is a float or an
    array of candidate gains, which gives a mask. ``utility()`` costs a
    gather and a dot product over F files, so it is read only when some
    gain beats the loss."""
    commits = gain > loss  # a bool for a float gain, else a mask
    if commits if isinstance(commits, bool) else commits.any():
        commits &= gain - loss > SWAP_MIN_RELATIVE_GAIN * ev.utility()
    return commits


def _rcr_swaps(ev, new_file):
    """Run the reactive replacement loop against an evaluator in place.

    Returns the list of committed swap records. The loop runs at most R+1
    times: find the cached copy with the smallest marginal loss, and swap
    the new file into its slot if and only if that raises utility by more
    than ``SWAP_MIN_RELATIVE_GAIN`` of the utility before the swap;
    otherwise stop. The new file's gain does not depend on the evicted
    copy, so it is read first and a rejected swap mutates nothing; as the
    evaluator keeps its min-loss copy between mutations, a miss that swaps
    nothing costs one gather of the new file's gains. A copy the new file
    already holds has gain exactly 0, so the loop never swaps the new file
    for itself.
    Raises ``ValueError`` for a new file out of range or already cached.
    """
    ev.placement._check_file(new_file)
    if ev.codes[new_file - 1]:
        raise ValueError(f"file {new_file} is already cached")
    steps = []
    for attempt in range(ev.num_bs + 1):
        worst = ev.min_loss_element()
        if worst is None:
            break
        loss, evict_file, cache = worst
        gain = float(ev._marginals(new_file - 1, ev.codes[new_file - 1])[cache])
        if not _swap_commits(ev, gain, loss):
            break
        ev.remove(evict_file, cache)
        ev.add(new_file, cache)
        steps.append({"iteration": attempt + 1, "file": new_file,
                      "cache": cache, "evicted_file": evict_file,
                      "gain": gain - loss, "utility": ev.utility()})
    return steps


def _rcr_triggers(ev):
    """The misses on which :func:`_rcr_swaps` would commit a swap, as a mask
    over file ids 0..F (0 is never set). A miss's first attempt evicts the
    min-loss copy, so the mask holds the uncached files whose gain at that
    copy's cache passes :func:`_swap_commits` against its loss. It stays
    valid until the evaluator mutates. The gains are one gather of that
    cache's column. When every file is cached the mask is clear, and
    nothing is read."""
    triggers = np.zeros(ev.placement.num_files + 1, dtype=bool)
    uncached = ev.codes == 0
    worst = ev.min_loss_element() if uncached.any() else None
    if worst is not None:
        loss, _, cache = worst
        gain = ev._marginals(np.arange(ev.placement.num_files), ev.codes, caches=[cache])
        triggers[1:] = _swap_commits(ev, gain[:, 0], loss) & uncached
    return triggers


def rcr(placement, new_file, topology, popularity, mode=RoutingMode.FULL):
    """Reactive cache replacement after a miss on ``new_file``.

    The new file must not be cached anywhere (it was just fetched from the
    CDN). Utility never decreases; every committed swap raises it by more
    than ``SWAP_MIN_RELATIVE_GAIN`` of its value before the swap;
    capacities are preserved. ``OctopusPolicy`` runs the same loop on each
    miss that :func:`_rcr_triggers` says would commit a swap.

    Returns
    -------
    PlacementAlgorithmReport
        ``iterations`` counts committed swaps.
    """
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
    ev = UtilityEvaluator(topology, popularity, Placement(capacities, F), mode=mode)
    sizes, _ = _effective_sizes(capacities, F)
    total = math.prod(math.comb(F, size) for size in sizes)
    if total > ORACLE_ENUMERATION_LIMIT:
        raise OracleSizeError(f"instance needs {total} placements, above the "
                              f"enumeration bound {ORACLE_ENUMERATION_LIMIT}")
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


def _ranked_sizes(topology, catalog, popularity, capacities):
    """Each cache's fill target and the catalog ranked by popularity, once
    the instance passes :func:`place_femtox`'s checks, else ``ValueError``."""
    num_files = catalog.num_files
    _check_instance(topology, Placement(capacities, num_files), popularity)
    return _effective_sizes(capacities, num_files)[0], top_popular(popularity, num_files)


def place_eo(topology, catalog, popularity, capacities):
    """Edge-only baseline: each edge cache independently stores its most
    popular files; the cloud cache stays empty. Meant to be evaluated under
    EDGE_ONLY routing (no cloud, no neighbor access)."""
    (_, *edges), ranked = _ranked_sizes(topology, catalog, popularity, capacities)
    return Placement(capacities, catalog.num_files,
                     [(), *(ranked[:size] for size in edges)])


def place_ecnc(topology, catalog, popularity, capacities):
    """Edge+cloud non-cooperative baseline: every cache, cloud included,
    independently stores the most popular files (duplication allowed).
    Meant to be evaluated under EDGE_CLOUD routing (no neighbor access)."""
    sizes, ranked = _ranked_sizes(topology, catalog, popularity, capacities)
    return Placement(capacities, catalog.num_files,
                     [ranked[:size] for size in sizes])


def place_exmpc(topology, catalog, popularity, capacities):
    """Exclusively-most-popular baseline: edges store the most popular
    files; the cloud stores the most popular files not already held by any
    edge cache (second tier). Each edge holds a prefix of the ranking, so
    the cloud takes the ranks that start after the longest edge. Evaluated
    under FULL cooperative routing."""
    (cloud, *edges), ranked = _ranked_sizes(topology, catalog, popularity, capacities)
    start = max(edges)
    return Placement(capacities, catalog.num_files,
                     [ranked[start:start + cloud], *(ranked[:size] for size in edges)])


def place_femtox(topology, catalog, popularity, capacities):
    """Helper-style greedy baseline: :func:`pcd`'s placement, with no report,
    except copies are valued without the neighbor U-turn (each edge cache
    only serves its own cell, plus the cloud). Evaluated under FULL routing."""
    return _greedy(topology, catalog, popularity, capacities,
                   RoutingMode.EDGE_CLOUD)[0].placement
