"""Request workloads: trace ingestion, synthetic Zipf generation, empirical
popularity estimation, and user-to-BS assignment.

The on-disk trace format is a UTF-8 CSV with three columns,
``timestamp,user_id,content_id``; lines end at LF, CRLF or a lone CR. A
header row is optional and detected by a non-numeric first field. Content
ids are opaque; parsing interns them to dense catalog indices 1..F in order
of first appearance in the time-sorted stream, and user ids to indices into
the trace's user labels in the same order.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyTraceError, TraceError, TraceFormatError
from .topology import Popularity, _count

#: Fraction of malformed lines beyond which the input is rejected outright.
MALFORMED_LINE_TOLERANCE = 0.10

TRACE_HEADER = "timestamp,user_id,content_id"


@dataclass(slots=True)
class RequestEvent:
    """One request: when, who, and the dense catalog index of what."""

    time: float
    user_id: object
    file_id: int


@dataclass
class RequestTrace:
    """A time-sorted request stream held as columns, plus label tables.

    Request ``n`` is made at ``times[n]`` by user
    ``user_labels[user_index[n]]`` for catalog file ``file_ids[n]``
    (1..``catalog_size``). ``user_labels`` lists each requesting user once,
    in order of first appearance in the stream, which is the order
    :meth:`users` returns. ``content_labels`` keeps the original opaque
    content ids by catalog index for round-trip serialization; it is empty
    for a synthetic trace. A user's home BS is kept on the ``Topology``
    alone. The column arrays are read-only.
    """

    times: np.ndarray
    user_index: np.ndarray
    user_labels: tuple
    file_ids: np.ndarray
    catalog_size: int
    content_labels: tuple = ()
    malformed_lines: int = 0

    def __post_init__(self):
        for column in (self.times, self.user_index, self.file_ids):
            column.flags.writeable = False

    @property
    def events(self):
        """The requests as :class:`RequestEvent` objects, built one at a time
        as they are read: a compatibility view over the columns."""
        return _EventView(self, range(len(self.times)))

    def users(self):
        """Distinct user ids in first-appearance order."""
        return list(self.user_labels)

    def with_assignment(self, assignment):
        """A fresh copy of this trace once ``assignment`` homes each of its
        users, else ``ValueError``; the map itself lives on ``Topology``."""
        for user in self.user_labels:
            if user not in assignment:
                raise ValueError(f"user {user!r} missing from assignment")
        return replace(self)

    def label_of(self, file_id):
        if self.content_labels:
            return self.content_labels[file_id - 1]
        return str(file_id)

    def __eq__(self, other):
        return (isinstance(other, RequestTrace)
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.user_index, other.user_index)
                and np.array_equal(self.file_ids, other.file_ids)
                and self.user_labels == other.user_labels
                and self.catalog_size == other.catalog_size
                and self.content_labels == other.content_labels)


class _EventView(Sequence):
    """Read-only sequence of a trace's requests at the positions in
    ``positions`` (a ``range``); its length builds nothing, and a slice is
    another view. Equal to any sequence of the same events."""

    __slots__ = ("_trace", "_positions")

    def __init__(self, trace, positions):
        self._trace = trace
        self._positions = positions

    def __len__(self):
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _EventView(self._trace, self._positions[index])
        n = self._positions[index]
        trace = self._trace
        return RequestEvent(time=float(trace.times[n]),
                            user_id=trace.user_labels[trace.user_index[n]],
                            file_id=int(trace.file_ids[n]))

    def __iter__(self):
        trace, positions = self._trace, self._positions
        part = (slice(positions.start, positions.stop) if positions.step == 1
                else positions)
        labels = trace.user_labels
        for time, user, file in zip(trace.times[part].tolist(),
                                    trace.user_index[part].tolist(),
                                    trace.file_ids[part].tolist()):
            yield RequestEvent(time=time, user_id=labels[user], file_id=file)

    def __eq__(self, other):
        return (isinstance(other, Sequence) and len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))


def _by_first_appearance(codes, labels):
    """Renumber ``codes`` (0-based ids into ``labels``) by first appearance;
    returns the new codes and the labels that appear, by new code."""
    first = np.full(len(labels), codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    seen = np.argsort(first)[:np.count_nonzero(first < codes.size)]
    renumber = np.empty(len(labels), dtype=np.intp)
    renumber[seen] = np.arange(seen.size)
    return renumber[codes], tuple(labels[k] for k in seen.tolist())


def _looks_like_header(fields):
    if len(fields) != 3:
        return False
    try:
        float(fields[0].strip())
    except ValueError:
        return True
    return False


def parse_trace(source):
    """Parse a request trace from text or a file-like character stream.

    A line ends at LF, CRLF or a lone CR. Rows are stable-sorted by
    timestamp, then content and user ids are interned to dense indices in
    first-appearance order of the sorted stream. A non-blank line that is not
    three comma-separated fields, a finite timestamp then two ids non-empty
    once stripped, is malformed, skipped and counted; only the first
    non-blank line is skipped uncounted instead, when it is a header: three
    fields, the first not a number.

    Raises
    ------
    EmptyTraceError
        When no usable events remain.
    TraceFormatError
        When more than 10% of non-empty lines are malformed.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    times, users, contents = [], [], []
    user_codes, content_codes = {}, {}  # label -> code, in file order
    malformed, header = 0, False
    isfinite = math.isfinite
    for line in source:
        try:  # user and content are read only once both lines succeed
            stamp, user, content = line.split(",")
            ts = float(stamp.strip())  # float() keeps U+001C..U+001F; strip() drops them
        except ValueError:  # not three fields, or no number before the first comma
            ts = math.nan
        if isfinite(ts) and (user := user.strip()) and (content := content.strip()):
            times.append(ts)
            users.append(user_codes.setdefault(user, len(user_codes)))
            contents.append(content_codes.setdefault(content, len(content_codes)))
        elif line.strip():  # a header only as the first non-blank line
            if times or malformed or header or not _looks_like_header(line.split(",")):
                malformed += 1
            else:
                header = True
    considered = len(times) + malformed
    if considered and malformed / considered > MALFORMED_LINE_TOLERANCE:
        raise TraceFormatError(
            f"{malformed} of {considered} lines malformed, above the "
            f"{MALFORMED_LINE_TOLERANCE:.0%} tolerance")
    if not times:
        raise EmptyTraceError("no usable request events in input")
    times = np.array(times, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    user_index, user_labels = _by_first_appearance(
        np.array(users, dtype=np.intp)[order], list(user_codes))
    file_index, content_labels = _by_first_appearance(
        np.array(contents, dtype=np.intp)[order], list(content_codes))
    return RequestTrace(times=times[order], user_index=user_index,
                        user_labels=user_labels, file_ids=file_index + 1,
                        catalog_size=len(content_labels),
                        content_labels=content_labels,
                        malformed_lines=malformed)


#: ``(key, trace)`` of the last request stream :func:`_kept` built, or
#: None: one trace per process, whatever its source. A trace file's key is
#: the file's bytes, which so stay alive beside its trace; a synthetic
#: stream's key is every input of its draw (``engine.prepare``).
_last_stream = None

#: Bytes :func:`parse_trace_file` reads at a time to confirm a kept file.
_CHUNK = 256 * 1024


def _kept(key, build):
    """The trace kept under ``key``, built by ``build()`` and kept in place
    of the last one when ``key`` is not equal to the kept key. Each call
    returns a fresh copy whose columns are read-only views of the kept ones,
    which cannot be made writeable: no caller can change a later call's."""
    global _last_stream
    last = _last_stream
    if last is None or last[0] != key:
        trace = build()
        last = _last_stream = key, replace(
            trace, times=_over_bytes(trace.times),
            user_index=_over_bytes(trace.user_index),
            file_ids=_over_bytes(trace.file_ids))
    trace = last[1]
    return replace(trace, times=trace.times.view(),
                   user_index=trace.user_index.view(),
                   file_ids=trace.file_ids.view())


def _kept_stream(trace):
    """The kept trace that ``trace``, a fresh copy from :func:`_kept`, was
    copied from, while it is still kept; else None."""
    last = _last_stream
    if last is not None and trace.file_ids.base is last[1].file_ids:
        return last[1]
    return None


def _holds(handle, data):
    """Whether the binary file ``handle``, read from its start, holds
    exactly the bytes ``data``: its size first, then chunk by chunk into
    one buffer, up to the first chunk that differs. When it does not, the
    file is left at its start again."""
    if not isinstance(data, bytes) or os.fstat(handle.fileno()).st_size != len(data):
        return False
    buffer = bytearray(_CHUNK)
    view, offset = memoryview(buffer), 0
    while (count := handle.readinto(buffer)) and data.startswith(view[:count], offset):
        offset += count
    if not count and offset == len(data):
        return True
    handle.seek(0)
    return False


def parse_trace_file(path):
    """Parse the trace file at ``path``, skipping a leading UTF-8 byte-order
    mark; an unreadable or non-UTF-8 file raises ``TraceError``.

    The last successfully parsed file's bytes are kept with its trace, which
    is reused while a file's bytes are equal to those, whatever its path or
    modification time. A call confirms that by the file's size, then by
    comparing it with the kept bytes chunk by chunk, up to the first chunk
    that differs; only a file it has to parse is read whole. Each call
    returns a fresh trace (see :func:`_kept`), with read-only columns that
    no caller can change for a later call."""
    try:
        with open(path, "rb") as handle:
            last = _last_stream
            if last is not None and _holds(handle, last[0]):
                data = last[0]
            else:
                data = handle.read()
        return _kept(data, lambda: parse_trace(io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8-sig", newline="")))
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc


def _over_bytes(column):
    """A copy of ``column`` held in a ``bytes`` object, which numpy never
    makes writeable: not even a view's ``base`` can then be written."""
    return np.frombuffer(column.tobytes(), dtype=column.dtype)


def serialize_trace(trace):
    """Render a trace in the on-disk CSV format, header row included; parse
    round-trips it exactly."""
    out = [TRACE_HEADER]
    labels = trace.user_labels
    for time, user, file in zip(trace.times.tolist(), trace.user_index.tolist(),
                                trace.file_ids.tolist()):
        time = np.format_float_positional(time, trim="-")
        out.append(f"{time},{labels[user]},{trace.label_of(file)}")
    return "\n".join(out) + "\n"


def zipf_popularity(num_files, alpha):
    """Zipf popularity: P_k proportional to 1 / k**alpha, k = 1..F.

    alpha = 0 degenerates to the uniform distribution; larger alpha
    concentrates mass on the top ranks.
    """
    num_files = _count(num_files, "num_files", 1)
    if not alpha >= 0:  # nan included
        raise ValueError("alpha must be >= 0")
    ranks = np.arange(1, num_files + 1, dtype=float)
    weights = ranks ** -float(alpha)
    return Popularity(weights / weights.sum())


#: Inverse-CDF draws :func:`_inverse_cdf` settles by stepping up from its
#: guide table before it falls back to a binary search.
_GUIDE_STEPS = 3


def _inverse_cdf(cdf, u):
    """``np.searchsorted(cdf, u, side="right")`` for a non-decreasing ``cdf``
    of F entries and keys ``u`` in [0, 1), read through a guide table
    (Chen & Asau 1974; Devroye 1986, section III.2.4).

    With K = 2F buckets, ``guide[j]`` counts the entries <= (j - 1) / K, a
    lower bound on the answer for every key whose ``int(u * K)`` is j; the
    table covers j = K, which ``u * K`` can round to. Each draw then steps
    up the CDF, padded with +inf, while the entry it stands on is <= u. As
    the CDF is non-decreasing, the walk stops at the binary search's index.
    Keys still unsettled after ``_GUIDE_STEPS`` steps, as in the crowded
    tail buckets of a steep Zipf law, get one ``np.searchsorted``."""
    K = 2 * len(cdf)
    guide = np.searchsorted(cdf, (np.arange(K + 1) - 1) / K, side="right")
    padded = np.append(cdf, np.inf)
    draws = guide[(u * K).astype(np.intp)]
    for _ in range(_GUIDE_STEPS):
        draws += padded[draws] <= u
    unsettled = np.flatnonzero(padded[draws] <= u)
    draws[unsettled] = np.searchsorted(cdf, u[unsettled], side="right")
    return draws


def generate_requests(popularity, num_requests, users, seed):
    """Sample a synthetic trace: file by inverse-CDF draw from the
    popularity (:func:`_inverse_cdf`), user uniformly from ``users``,
    timestamps equal to the event index. Bit-for-bit reproducible per
    seed. ``num_requests`` and ``seed`` are whole numbers >= 0 (500.0 is
    500)."""
    num_requests = _count(num_requests, "num_requests", 0)
    if not users:
        raise ValueError("users must be non-empty")
    ids = {}
    user_codes = np.array([ids.setdefault(user, len(ids)) for user in users],
                          dtype=np.intp)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    cdf = np.cumsum(popularity.as_array())
    draws = _inverse_cdf(cdf, rng.random(num_requests))
    files = np.minimum(draws, popularity.num_files - 1) + 1
    who = rng.integers(0, len(user_codes), size=num_requests)
    user_index, user_labels = _by_first_appearance(user_codes[who], list(ids))
    return RequestTrace(times=np.arange(num_requests, dtype=np.float64),
                        user_index=user_index, user_labels=user_labels,
                        file_ids=files.astype(np.intp, copy=False),
                        catalog_size=popularity.num_files)


def estimate_popularity(trace, window, smoothing=1.0):
    """Empirical popularity of the trace's catalog over the first ``window``
    events with additive (Laplace) smoothing, so unseen files keep a nonzero
    probability.

    p_k = (count_k + smoothing) / (window + smoothing * F).

    ``window`` is a whole number from 0 to the trace length (1.0 is 1).
    ``smoothing`` must be finite and >= 0, and > 0 when ``window`` is 0,
    else the estimate is not a distribution: ``ValueError``.
    """
    window = _count(window, "window", 0)
    if window > len(trace.file_ids):
        raise ValueError("window must lie within the trace length")
    if not (math.isfinite(smoothing) and smoothing >= 0
            and (smoothing > 0 or window > 0)):
        raise ValueError("smoothing must be a finite number >= 0, "
                         "and > 0 when window is 0")
    F = trace.catalog_size
    counts = np.bincount(trace.file_ids[:window], minlength=F + 1)[1:]
    return Popularity((counts + smoothing) / (window + smoothing * F))


def assign_users(user_ids, num_bs, seed):
    """Assign each user a home BS, i.i.d. uniform over 1..num_bs, where
    ``num_bs`` is a whole number >= 1 (4.0 is 4); deterministic per seed, a
    whole number >= 0."""
    num_bs = _count(num_bs, "num_bs", 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    homes = rng.integers(1, num_bs + 1, size=len(user_ids))
    return {user: int(home) for user, home in zip(user_ids, homes)}
