"""Request routing and the delay-reduction objective.

A request from BS r for file i is served from the cheapest feasible source:
the local edge cache (cost 0), the cloud cache (cost d_r), a neighbor's edge
cache (cost d_rk), or the CDN origin (cost d_0). The objective optimized by
the placement algorithms is the total expected delay *reduction* relative to
fetching everything from the CDN: a copy of file i in cache k is worth

* t = d_0        when k is the requesting BS itself (local hit),
* t = d_0 - d_r  when k is the cloud cache,
* t = d_0 - d_rk when k is a neighbor BS,

and each user's per-file value is the best t among the caches currently
holding the file (0 if uncached). The two views are dual: for any feasible
placement, utility + total expected delay = U * d_0.

A :class:`Placement` is one (R+1, F+1) bool array, ``mask``, which every
reader here indexes: :class:`UtilityEvaluator`, :func:`total_expected_delay`,
the per-request walk of :func:`route_request` and :func:`_serving_table`,
which answers every request of a policy at once.

The utility is monotone and submodular in the set of (file, cache) copies,
which is what makes the greedy placement in :mod:`octocache.placement` carry
a 1/2 approximation guarantee. This module keeps the two computations on
independent code paths (max over t-values vs. min over source costs) so the
duality can be checked rather than assumed.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .topology import _count


class RoutingMode(enum.Enum):
    """Which caches a user's request may be served from.

    FULL is the cooperative hierarchy (local, cloud, neighbors, CDN).
    EDGE_CLOUD forbids the neighbor U-turn; EDGE_ONLY additionally forbids
    the cloud cache. The CDN is always reachable.
    """

    FULL = "full"
    EDGE_CLOUD = "edge-cloud"
    EDGE_ONLY = "edge-only"


class SourceKind(enum.Enum):
    LOCAL_EDGE = "local"
    CLOUD = "cloud"
    NEIGHBOR_EDGE = "neighbor"
    CDN = "cdn"


@dataclass(frozen=True)
class Source:
    """Where a request was served from and at what delay cost.

    ``cache`` is the serving cache index (0 = cloud, 1..R = edge), or None
    for a CDN fetch. The cost is 0 exactly when the source is the local
    edge cache.
    """

    kind: SourceKind
    cache: int | None
    delay_cost: float


class Placement:
    """Cache contents: the (R+1, F+1) bool array ``mask``, entry [k, i] set
    when cache k (0 = cloud) holds file i, column 0 clear; ``contents`` reads
    it as a fresh list of sets. A placement is feasible when every cache
    holds at most its capacity. The constructor checks its contents, and
    ``add``, ``remove`` and the batch ``_add_copies`` check each change
    before writing it; a write through ``mask`` goes unchecked. Mutation requires
    exclusive access, reads of a stable placement are safe to share.
    """

    __slots__ = ("capacities", "num_files", "mask", "_caps")

    def __init__(self, capacities, num_files, contents=None):
        self.capacities = capacities
        self.num_files = num_files = _count(num_files, "num_files", 1)
        self._caps = caps = capacities.as_list()
        self.mask = np.zeros((len(caps), num_files + 1), dtype=bool)
        if contents is not None:
            if len(contents) != len(caps):
                raise ValueError(f"expected {len(caps)} cache sets, got {len(contents)}")
            for r, files in enumerate(contents):
                try:
                    cols = np.fromiter(map(operator.index, files), dtype=np.intp)
                except (TypeError, OverflowError):
                    raise ValueError(f"cache {r} holds a non-integer file index") from None
                if cols.size:
                    self._check_file(cols.min())
                    self._check_file(cols.max())
                self.mask[r, cols] = True
                if self.cache_size(r) > caps[r]:
                    raise ValueError(f"cache {r} over capacity: {self.cache_size(r)} > {caps[r]}")

    @property
    def contents(self):
        return [set(np.flatnonzero(row).tolist()) for row in self.mask]

    def _check_file(self, file):
        _check_index(file, 1, self.num_files, "file")

    def _check_cache(self, cache):
        _check_index(cache, 0, len(self._caps) - 1, "cache")

    @property
    def num_caches(self):
        return len(self._caps)

    def contains(self, file, cache):
        self._check_cache(cache)
        return _is_index(file, 1, self.num_files) and bool(self.mask[cache, file])

    def cache_size(self, cache):
        self._check_cache(cache)
        return int(np.count_nonzero(self.mask[cache]))

    def is_full(self, cache):
        return self.cache_size(cache) >= self._caps[cache]

    def _check_add(self, file, cache):
        """Raise ``ValueError`` unless the copy may be added."""
        self._check_file(file)
        self._check_cache(cache)
        if self.mask[cache, file]:
            raise ValueError(f"file {file} already placed in cache {cache}")
        if self.is_full(cache):
            raise ValueError(f"cache {cache} is full")

    def _check_remove(self, file, cache):
        """Raise ``ValueError`` unless the copy may be removed."""
        if not self.contains(file, cache):
            raise ValueError(f"file {file} not in cache {cache}")

    def add(self, file, cache):
        self._check_add(file, cache)
        self.mask[cache, file] = True

    def remove(self, file, cache):
        self._check_remove(file, cache)
        self.mask[cache, file] = False

    def _add_copies(self, files, caches):
        """:meth:`add` of the copies ``(files[n], caches[n])``, int arrays, at
        once. Raises ``ValueError``, before any change, on a file or cache out
        of range, a copy held or given twice, or a cache it would overflow; an
        empty batch changes nothing.

        Every target is checked clear first, so the batch is written and
        undone exactly when a cache gained fewer copies than the batch
        names for it (a copy given twice) or ends over its capacity."""
        if not files.size:
            return
        for file, cache in ((files.min(), caches.min()), (files.max(), caches.max())):
            self._check_file(file)
            self._check_cache(cache)
        if self.mask[caches, files].any():
            raise ValueError("a copy is already placed or given twice")
        before = self._sizes()
        self.mask[caches, files] = True
        sizes = self._sizes()
        twice = (sizes - before != np.bincount(caches, minlength=sizes.size)).any()
        over = sizes > self._caps
        if twice or over.any():
            self.mask[caches, files] = False
            raise ValueError("a copy is already placed or given twice" if twice
                             else f"cache {int(over.argmax())} would overflow its capacity")

    def size(self):
        return int(np.count_nonzero(self.mask))

    def _sizes(self):
        """The number of files in each cache, as an int array."""
        return np.fromiter(map(np.count_nonzero, self.mask), dtype=np.intp,
                           count=len(self._caps))

    def is_feasible(self):
        return not self.mask[:, 0].any() and bool((self._sizes() <= self._caps).all())

    def copy(self):
        other = Placement(self.capacities, self.num_files)
        other.mask[:] = self.mask
        return other

    def __eq__(self, other):
        return (isinstance(other, Placement)
                and self.num_files == other.num_files
                and self.capacities == other.capacities
                and np.array_equal(self.mask, other.mask))

    def __repr__(self):
        rows = ", ".join(f"C{r}={np.flatnonzero(row).tolist()}"
                         for r, row in enumerate(self.mask))
        return f"Placement({rows})"


def _is_index(value, low, high):
    """Whether ``value`` is an integer (as ``operator.index`` reads one) in low..high."""
    try:
        return low <= operator.index(value) <= high
    except TypeError:
        return False


def _check_index(value, low, high, name):
    """Raise ``ValueError`` unless ``value`` is an integer ``name`` index in low..high."""
    if not _is_index(value, low, high):
        raise ValueError(f"{name} index {value} outside {low}..{high}"
                         if hasattr(type(value), "__index__")
                         else f"{name} index must be an integer, got {value!r}")


def t_value_table(topology, mode=RoutingMode.FULL):
    """Delay reduction t of one cached copy, per (requesting BS, cache).

    Returns an array of shape (R, R+1) where entry [b-1, k] is the delay
    reduction a user at BS b gets from a copy in cache k, given the routing
    mode. Sources a mode forbids contribute 0, i.e. the copy is worthless
    to that user.
    """
    R, d0 = topology.num_bs, topology.cdn_delay
    t = np.zeros((R, R + 1))
    if mode is RoutingMode.FULL:
        t[:, 1:] = d0 - np.asarray(topology.peer_delay, dtype=float)
    if mode is not RoutingMode.EDGE_ONLY:
        t[:, 0] = d0 - np.asarray(topology.edge_delay, dtype=float)
    t[np.arange(R), np.arange(1, R + 1)] = d0
    return t


def source_cost_table(edge_delay, peer_delay, mode=RoutingMode.FULL):
    """Delay cost of serving BS b from cache k, shape (R, R+1), with
    ``inf`` for sources the routing mode forbids."""
    R = len(edge_delay)
    cost = np.full((R, R + 1), np.inf)
    if mode is RoutingMode.FULL:
        cost[:, 1:] = peer_delay
    if mode is not RoutingMode.EDGE_ONLY:
        cost[:, 0] = edge_delay
    cost[np.arange(R), np.arange(1, R + 1)] = 0.0
    return cost


def _source_table(topology, mode):
    """Every :class:`Source` some BS may be served from, the CDN first, and
    per requesting BS b, entry b-1: ``(cache, index)`` into that list for
    every cache :func:`source_cost_table` lets b reach, cheapest first, the
    lower cache index first at equal cost. Both are tuples, built once per
    network delays and mode and shared by every caller."""
    return _source_table_of(tuple(topology.edge_delay),
                            tuple(map(tuple, topology.peer_delay)),
                            topology.cdn_delay, mode)


@functools.lru_cache(maxsize=32)
def _source_table_of(edge_delay, peer_delay, cdn_delay, mode):
    cost = source_cost_table(edge_delay, peer_delay, mode)
    sources = [Source(SourceKind.CDN, None, cdn_delay)]
    order = []
    for b, row in enumerate(cost.tolist(), start=1):
        kinds = {b: SourceKind.LOCAL_EDGE, 0: SourceKind.CLOUD}
        caches = []
        for c, k in sorted((c, k) for k, c in enumerate(row) if c != np.inf):
            caches.append((k, len(sources)))
            sources.append(Source(kinds.get(k, SourceKind.NEIGHBOR_EDGE), k, c))
        order.append(tuple(caches))
    return tuple(sources), tuple(order)


def _serving_table(mask, order):
    """The source index serving every request at once, for a fixed ``mask``.

    Returns an int array, one row per BS plus row 0 (all 0), one column per
    column of ``mask``: entry [bs, col] is the index of the first cache in
    ``order[bs - 1]`` whose mask row holds ``col``, else 0 (the CDN). Columns
    are independent, so the table of a subset of ``mask``'s columns is those
    columns of the full table. Each cache row becomes an array once, and each
    BS writes its caches in reverse order, so the first holder wins.
    """
    held = [np.flatnonzero(row) for row in mask]
    table = np.zeros((len(order) + 1, mask.shape[1]), dtype=np.intp)
    for bs, caches in enumerate(order, start=1):
        for cache, index in reversed(caches):
            table[bs, held[cache]] = index
    return table


def route_request(placement, topology, bs, file, mode=RoutingMode.FULL):
    """Route one request to the cheapest feasible source.

    Exactly one source is chosen: the minimum-cost cache currently holding
    the file among those the mode allows, or the CDN if none does. Cost ties
    are broken toward the lower cache index (cloud first), and any cache
    beats the CDN at equal cost.

    Parameters
    ----------
    placement : Placement
    topology : Topology
    bs : int
        Requesting base station, 1..R.
    file : int
        Requested file, 1..F.
    mode : RoutingMode

    Returns
    -------
    Source
    """
    _check_instance(topology, placement)
    _check_index(bs, 1, topology.num_bs, "bs")
    placement._check_file(file)
    sources, order = _source_table(topology, mode)
    mask = placement.mask
    return next((sources[i] for k, i in order[bs - 1] if mask[k, file]), sources[0])


def _check_instance(topology, placement, popularity=None):
    """Raise ``ValueError`` unless ``placement`` has a cache per BS plus the
    cloud and ``popularity``, if given, a probability per catalog file."""
    R, F = topology.num_bs, placement.num_files
    if placement.num_caches != R + 1:
        raise ValueError(f"placement has {placement.num_caches} caches; {R} BSs need {R + 1}")
    if popularity is not None and popularity.num_files != F:
        raise ValueError(f"popularity of {popularity.num_files} files for a {F}-file catalog")


def total_expected_delay(placement, topology, popularity,
                         mode=RoutingMode.FULL):
    """Total expected delay [ms] summed over every user in the topology.

    Each (BS, file) pays its optimal route's cost, a min over explicit
    source costs (independently of the t-value path)."""
    _check_instance(topology, placement, popularity)
    cost = source_cost_table(topology.edge_delay, topology.peer_delay, mode)
    held = placement.mask[None, :, 1:]
    delays = np.minimum(np.where(held, cost[:, :, None], np.inf).min(axis=1),
                        topology.cdn_delay)
    return float(topology.bs_user_counts() @ delays @ popularity.as_array())


def utility(placement, topology, popularity, mode=RoutingMode.FULL):
    """Total expected delay reduction of a placement over all users.

    Equals ``U * d_0 - total_expected_delay`` for every feasible placement;
    monotone and submodular in the set of (file, cache) copies.
    """
    return UtilityEvaluator(topology, popularity, placement, mode=mode).utility()


def marginal_gain(placement, candidate, topology, popularity,
                  mode=RoutingMode.FULL):
    """Utility increase from adding ``candidate = (file, cache)``.

    Always non-negative (monotonicity). Raises ``ValueError`` when the
    candidate is already placed or its cache is full.
    """
    ev = UtilityEvaluator(topology, popularity, placement, mode=mode)
    return ev.marginal_gain(*candidate)


def marginal_loss(placement, member, topology, popularity,
                  mode=RoutingMode.FULL):
    """Utility decrease from removing ``member = (file, cache)``.

    Always non-negative; equals ``marginal_gain(placement - member, member)``.
    Raises ``ValueError`` when the member is not placed.
    """
    ev = UtilityEvaluator(topology, popularity, placement, mode=mode)
    return ev.marginal_loss(*member)


class UtilityEvaluator:
    """Incremental utility bookkeeping for one mutable placement.

    All state derives from the placement's (R+1, F) ``mask``, a view of the
    placement's array without column 0. ``codes`` holds each file's holder
    set, the caches holding it, as the int ``sum_k 2^k mask[k, j]``, and
    ``best1`` (R, F) holds, per (BS, file), the best t-value among those
    caches: column j is column ``codes[j]`` of a table of all 2^(R+1)
    holder sets, built with the evaluator. Two (F, R+1) tables hold each
    copy's marginal gain (0 where the cache holds the file) and marginal
    loss (``inf`` where it does not). Both are rows of :meth:`_marginals`:
    the file's probability times the row of its holder set in a table of
    all holder sets, built once per table kind on first use. :meth:`add`,
    :meth:`remove` and the bulk :meth:`add_copies` change the placement
    through its own checked methods, then update ``codes`` and ``best1``
    and mark the files' rows stale; a table read recomputes its stale rows
    at once. The evaluator owns its placement copy: mutate through those
    three only. A table read refreshes that table, so even reads need
    exclusive access while any row is stale. A placement or popularity
    that does not fit the topology or catalog is a ``ValueError``.
    """

    def __init__(self, topology, popularity, placement, mode=RoutingMode.FULL):
        _check_instance(topology, placement, popularity)
        self.placement = placement.copy()
        self.probs = popularity.as_array()
        self.counts = topology.bs_user_counts()
        self.t_table = t_value_table(topology, mode)
        self.num_bs = topology.num_bs
        self._bits = 1 << np.arange(self.num_bs + 1)
        # column S holds the caches of holder set S
        self._sets = (np.arange(2 ** (self.num_bs + 1)) & self._bits[:, None]).astype(bool)
        self._best_t = np.zeros((self.num_bs, self._sets.shape[1]))
        for k, bit in enumerate(self._bits.tolist()):  # the sets whose last cache is k
            self._best_t[:, bit:2 * bit] = np.maximum(self._best_t[:, :bit],
                                                      self.t_table[:, k, None])
        self.codes = self._bits @ self.mask
        self.best1 = np.take(self._best_t, self.codes, axis=1)  # C order keeps utility()'s bits
        self._sums = {}  # rank -> sums per holder set, see _sums_table
        self._gains = np.zeros((placement.num_files, self.num_bs + 1))
        self._gains_stale = np.ones(placement.num_files, dtype=bool)
        self._losses = np.full((placement.num_files, self.num_bs + 1), np.inf)
        self._losses_stale = np.ones(placement.num_files, dtype=bool)
        self._min_loss = None
        self._min_loss_stale = True

    # -- queries ----------------------------------------------------------

    @property
    def mask(self):
        return self.placement.mask[:, 1:]

    def utility(self):
        return float(self.counts @ self.best1 @ self.probs)

    def _sums_table(self, rank):
        """``sum_b count_b * max(t[b, k] - rival[b, S], 0)`` per holder set S
        (row) and cache k (column), shape (2^(R+1), R+1), built on the rank's
        first call. The rival is the ``rank``-th best t-value of S's caches:
        1 for a gain, 2 for a loss."""
        if rank not in self._sums:
            held_t = self.t_table[:, :, None] * self._sets
            versus = np.partition(held_t, -rank, axis=1)[:, -rank, :]
            drop = np.maximum(self.t_table[:, None, :] - versus[:, :, None], 0.0)
            drop *= self.counts[:, None, None]
            self._sums[rank] = drop.sum(axis=0)
        return self._sums[rank]

    def _marginals(self, js, codes, rank=1):
        """``p_j`` times the :meth:`_sums_table` row of holder set ``codes[n]``
        for files ``j = js[n]``, shape (len(js), R+1). Selecting the rival
        does not round, and numpy adds the BS axis in BS order, so a row is
        bitwise the same built alone or in the table."""
        return self.probs[js, None] * self._sums_table(rank)[codes]

    def _gain_table(self):
        """The gain table, its stale rows recomputed first."""
        if self._gains_stale.any():
            js = np.flatnonzero(self._gains_stale)
            self._gains[js] = self._marginals(js, self.codes[js])
            self._gains_stale[js] = False
        return self._gains

    def _loss_table(self):
        """The loss table, its stale rows recomputed first; a user falls back
        to its second-best holder, or to the CDN (t-value 0)."""
        if self._losses_stale.any():
            js = np.flatnonzero(self._losses_stale)
            losses = self._marginals(js, self.codes[js], rank=2)
            self._losses[js] = np.where(self.mask[:, js].T, losses, np.inf)
            self._losses_stale[js] = False
        return self._losses

    def marginal_gain(self, file, cache):
        self.placement._check_add(file, cache)
        return float(self._gain_table()[file - 1, cache])

    def marginal_loss(self, file, cache):
        self.placement._check_remove(file, cache)
        return float(self._loss_table()[file - 1, cache])

    def min_loss_element(self):
        """The cached copy with the smallest marginal loss, as a tuple
        (loss, file, cache); ties prefer the lower file then cache index.
        Returns None when nothing is cached. The result is kept until the
        next mutation, so repeated calls between mutations cost no table
        read."""
        if self._min_loss_stale:
            losses = self._loss_table()
            j, cache = divmod(int(losses.argmin()), self.num_bs + 1)
            best = losses[j, cache]
            self._min_loss = None if best == np.inf else (float(best), j + 1, cache)
            self._min_loss_stale = False
        return self._min_loss

    # -- mutation ---------------------------------------------------------

    def add(self, file, cache):
        self.placement.add(file, cache)
        self._update_column(file, cache)

    def remove(self, file, cache):
        self.placement.remove(file, cache)
        self._update_column(file, cache)

    def add_copies(self, files, caches):
        """:meth:`add` of the copies ``(files[n], caches[n])``, int arrays, at
        once, through ``Placement._add_copies``, which raises its
        ``ValueError`` before any change. An empty batch marks nothing stale."""
        if not files.size:
            return
        self.placement._add_copies(files, caches)
        js = files - 1
        np.bitwise_or.at(self.codes, js, self._bits[caches])
        self.best1[:, js] = self._best_t[:, self.codes[js]]
        self._gains_stale[js] = self._losses_stale[js] = True
        self._min_loss_stale = True

    def _update_column(self, file, cache):
        """Flip ``cache`` in the holder set of ``file``, just added or removed."""
        j = file - 1
        self.codes[j] ^= self._bits[cache]
        self.best1[:, j] = self._best_t[:, self.codes[j]]
        self._gains_stale[j] = self._losses_stale[j] = True
        self._min_loss_stale = True
