"""C-RAN cache hierarchy model: base stations with edge caches, a cloud cache
at the central processing unit (CPU), and the CDN origin behind the backhaul.

Delay conventions, all in milliseconds:

* serving a user from its home base station's edge cache costs 0,
* serving from the cloud cache costs the fronthaul delay ``d_r`` of the
  user's home BS,
* serving from a neighbor BS's edge cache costs the U-turn delay ``d_rk``
  (two fronthaul legs: BS k up to the CPU, then down to BS r),
* fetching from the CDN origin costs ``d_0`` and counts as a cache miss.

Cache indices run 0..R where 0 is the cloud cache and 1..R are the edge
caches. File indices run 1..F. All types in this module are immutable after
construction (``Topology.users`` is a plain dict: treat it as read-only) and
safe to share across concurrently running experiments.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

EDGE_DELAY_RANGE_MS = (10.0, 30.0)
CDN_DELAY_RANGE_MS = (60.0, 100.0)
DEFAULT_FILE_SIZE_MB = 20.0
DEFAULT_CLOUD_EDGE_RATIO = 4
#: Most base stations a topology may have: the utility evaluator tables
#: every one of the 2^(R+1) sets of caches that may hold a file.
MAX_BS = 11


def _whole(value, low=0, high=math.inf):
    """``value`` as an int if it is a whole number in [low, high], else None."""
    try:
        return int(value) if int(value) == value and low <= value <= high else None
    except (TypeError, ValueError, OverflowError):  # a non-number, nan or infinity
        return None


def _count(value, name, low, high=math.inf):
    """The count ``value`` as an int if it is a whole number in [low, high]
    (4.0 is 4), else a ``ValueError`` naming ``name`` and the rule it breaks.
    It also reads every seed, with ``low`` 0: a seed of 1.0 is 1, and, as
    numpy reads them, ``True`` is 1."""
    count = _whole(value, low, high)
    if count is None:
        real = isinstance(value, numbers.Real)
        raise ValueError(f"{name} must be >= {low}" if real and value < low
                         else f"{name} must be <= {high}" if real and value > high
                         else f"{name} must be a whole number")
    return count


@dataclass(frozen=True)
class Topology:
    """The cache hierarchy: R base stations, one cloud cache, delay costs.

    Parameters
    ----------
    num_bs : int
        Number of base stations R (one edge cache each), indexed 1..R: a
        whole number in 1..``MAX_BS``, held as an int (2.0 becomes 2).
    edge_delay : tuple of float
        Fronthaul delay d_r [ms] between the cloud cache and BS r, r = 1..R.
    peer_delay : tuple of tuple of float
        R x R matrix of U-turn delays d_rk [ms]; entry [r-1][k-1] is the cost
        of serving BS r from BS k's cache. Diagonal entries are unused and
        stored as 0 (a local hit costs nothing by definition). The matrix
        need not be symmetric, but the default U-turn construction
        (d_rk = d_r + d_k) makes it so.
    cdn_delay : float
        Backhaul delay d_0 [ms] of fetching from the CDN origin. Must exceed
        every in-network delay. Every delay must be finite.
    users : dict
        Active users, user id -> home BS, each served only by its home BS.
        Built from a mapping or from ``(user, home)`` pairs; a user listed
        twice, or a home that is not a whole number in 1..R, is rejected.
        Homes are stored as ints. A plain dict, so that a topology pickles.
    """

    num_bs: int
    edge_delay: tuple
    peer_delay: tuple
    cdn_delay: float
    users: object = ()

    def __post_init__(self):
        R = _count(self.num_bs, "num_bs", 1, MAX_BS)
        object.__setattr__(self, "num_bs", R)
        if len(self.edge_delay) != R:
            raise ValueError(f"expected {R} edge delays, got {len(self.edge_delay)}")
        if any(d <= 0 for d in self.edge_delay):
            raise ValueError("edge delays must be positive")
        if len(self.peer_delay) != R or any(len(row) != R for row in self.peer_delay):
            raise ValueError("peer_delay must be an R x R matrix")
        delays = (*self.edge_delay, *(d for row in self.peer_delay for d in row),
                  self.cdn_delay)
        if not all(math.isfinite(d) for d in delays):
            raise ValueError("delays must be finite")
        peers = [d for r, row in enumerate(self.peer_delay)
                 for k, d in enumerate(row) if r != k]  # empty when R = 1
        if any(d <= 0 for d in peers):
            raise ValueError("peer delays must be positive for r != k")
        if self.cdn_delay <= max([*self.edge_delay, *peers]):
            raise ValueError("cdn_delay must exceed every in-network delay")
        pairs = self.users.items() if isinstance(self.users, Mapping) else self.users
        users = {}
        for user, home in pairs:
            whole = (home if type(home) is int and 1 <= home <= R
                     else _whole(home, 1, R))  # an int home skips _whole's casts
            if whole is None:
                raise ValueError(f"user {user!r} has home BS {home}, "
                                 f"not a whole number in 1..{R}")
            if user in users:
                raise ValueError(f"user {user!r} assigned more than once")
            users[user] = whole
        object.__setattr__(self, "users", users)

    def home_bs(self, user):
        """Return the home BS of ``user`` or raise ``ValueError`` if unknown."""
        try:
            return self.users[user]
        except KeyError:
            raise ValueError(f"unknown user {user!r}") from None

    def user_count(self):
        return len(self.users)

    def bs_user_counts(self):
        """Number of users homed at each BS, as an array of length R."""
        homes = list(self.users.values())
        return np.bincount(homes, minlength=self.num_bs + 1)[1:].astype(float)

    def with_users(self, assignment):
        """Return a copy of this topology with users taken from a mapping
        of user id to home BS (iteration order is preserved), or this
        topology itself when ``assignment`` is its own ``users`` map."""
        if assignment is self.users:
            return self
        return replace(self, users=assignment)


@dataclass(frozen=True)
class Catalog:
    """The file library: F files of one uniform size. ``num_files`` is a
    whole number >= 1, held as an int (4.0 becomes 4)."""

    num_files: int
    file_size_mb: float = DEFAULT_FILE_SIZE_MB

    def __post_init__(self):
        object.__setattr__(self, "num_files", _count(self.num_files, "num_files", 1))
        if not (math.isfinite(self.file_size_mb) and self.file_size_bytes >= 1):
            raise ValueError("file_size_mb must be finite and at least one byte")

    @property
    def file_size_bytes(self):
        # decimal megabytes, matching the TB/GB units used for cache budgets
        return int(round(float(self.file_size_mb) * 1e6))


@dataclass(frozen=True, eq=False)
class Popularity:
    """Request probability p_k per file, k = 1..F.

    ``probs`` is held as a read-only numpy array; entries are finite,
    non-negative and sum to 1 within 1e-9.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("popularity must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("popularity entries must be finite")
        if np.any(arr < 0):
            raise ValueError("popularity entries must be >= 0")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("popularity must sum to 1 within 1e-9")

    @property
    def num_files(self):
        return int(self.probs.size)

    def as_array(self):
        return self.probs

    @classmethod
    def from_weights(cls, weights):
        """Normalize a vector of non-negative weights into a Popularity."""
        w = np.asarray(weights, dtype=float)
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls(w / total)


@dataclass(frozen=True)
class CacheCapacities:
    """Per-cache storage capacities in whole files, held as ints: cloud M_0, edges M_r."""

    cloud: int
    edge: tuple

    def __post_init__(self):
        object.__setattr__(self, "cloud", _count(self.cloud, "cloud capacity", 0))
        object.__setattr__(self, "edge", tuple(_count(m, "edge capacities", 0)
                                               for m in self.edge))

    @property
    def num_bs(self):
        return len(self.edge)

    def as_list(self):
        """Capacities indexed by cache, [M_0, M_1, ..., M_R]."""
        return [self.cloud, *self.edge]


def uturn_peer_delays(edge_delay):
    """U-turn neighbor delays d_rk = d_r + d_k (BS k -> CPU -> BS r).

    Diagonal entries are set to 0; they are never used because a local hit
    costs nothing.
    """
    d = np.asarray(edge_delay, dtype=float)
    peer = d[:, None] + d[None, :]
    np.fill_diagonal(peer, 0.0)
    return tuple(tuple(row) for row in peer)


def build_paper_topology(num_bs, seed):
    """Sample a topology with fronthaul delays in [10, 30] ms and a CDN
    delay in [60, 100] ms; neighbor delays are the U-turn sums.

    If the sampled CDN delay does not clear the largest U-turn delay, it is
    resampled until it does (by at least 1 ms), preserving the premise that
    in-network retrieval is always cheaper than a CDN fetch. Deterministic
    for a fixed seed.

    Parameters
    ----------
    num_bs : int
        Number of base stations, a whole number in 1..``MAX_BS`` (4.0 is 4).
    seed : int
        RNG seed, a whole number >= 0 (1.0 is 1); the same seed always
        yields a bit-identical topology.

    Returns
    -------
    Topology
        A topology with no users attached.
    """
    num_bs = _count(num_bs, "num_bs", 1, MAX_BS)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    edge = rng.uniform(*EDGE_DELAY_RANGE_MS, size=num_bs)
    cdn = float(rng.uniform(*CDN_DELAY_RANGE_MS))
    peer = uturn_peer_delays(edge)
    if num_bs > 1:
        max_peer = max(max(row) for row in peer)
        while cdn < max_peer + 1.0:
            cdn = float(rng.uniform(*CDN_DELAY_RANGE_MS))
    return Topology(num_bs=num_bs, edge_delay=tuple(float(d) for d in edge),
                    peer_delay=peer, cdn_delay=cdn)


def capacities_from_budget(total_bytes, topology, catalog,
                           cloud_edge_ratio=DEFAULT_CLOUD_EDGE_RATIO):
    """Split a total storage budget into per-cache capacities.

    The budget is converted into whole files, then divided so that the cloud
    cache holds ``cloud_edge_ratio`` times the capacity of each edge cache
    (default M_0 = 4 M_r). Remainder files that do not fit the exact ratio
    are discarded, keeping the ratio exact.

    Parameters
    ----------
    total_bytes : int
        Total storage budget across all caches, in bytes: a whole number
        >= 0 (1e9 is 10**9; a fractional budget is a ``ValueError``).
    topology : Topology
    catalog : Catalog
    cloud_edge_ratio : int
        Ratio M_0 / M_r, a whole number >= 0 (4.0 is 4).

    Returns
    -------
    CacheCapacities
    """
    total_files = _count(total_bytes, "total_bytes", 0) // catalog.file_size_bytes
    ratio = _count(cloud_edge_ratio, "cloud_edge_ratio", 0)
    per_edge = total_files // (ratio + topology.num_bs)
    return CacheCapacities(cloud=ratio * per_edge,
                           edge=(per_edge,) * topology.num_bs)
