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
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyTraceError, TraceError, TraceFormatError
from .topology import Popularity

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
    for a synthetic trace. ``user_assignment`` maps user id to home BS and
    may be empty until :meth:`with_assignment` attaches one covering every
    user. The column arrays are read-only.
    """

    times: np.ndarray
    user_index: np.ndarray
    user_labels: tuple
    file_ids: np.ndarray
    catalog_size: int
    content_labels: tuple = ()
    malformed_lines: int = 0
    user_assignment: dict = field(default_factory=dict)

    def __post_init__(self):
        for column in (self.times, self.user_index, self.file_ids):
            column.flags.writeable = False
        if self.user_assignment:
            self._check_coverage(self.user_assignment)

    def _check_coverage(self, assignment):
        for user in self.user_labels:
            if user not in assignment:
                raise ValueError(f"user {user!r} missing from assignment")

    @property
    def events(self):
        """The requests as :class:`RequestEvent` objects, built one at a time
        as they are read: a compatibility view over the columns."""
        return _EventView(self, range(len(self.times)))

    def users(self):
        """Distinct user ids in first-appearance order."""
        return list(self.user_labels)

    def with_assignment(self, assignment):
        self._check_coverage(assignment)
        return replace(self, user_assignment=dict(assignment))

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
                and self.user_assignment == other.user_assignment
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
    once stripped, is malformed, skipped and counted.

    Raises
    ------
    EmptyTraceError
        When no usable events remain.
    TraceFormatError
        When more than 10% of non-empty lines are malformed.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    lines = iter(source)
    for line in lines:
        if line.strip():
            if not _looks_like_header(line.split(",")):
                lines = itertools.chain((line,), lines)
            break
    times, users, contents = [], [], []
    user_codes, content_codes = {}, {}  # label -> code, in file order
    malformed = 0
    isfinite = math.isfinite
    for line in lines:
        try:  # user and content are read only once both lines succeed
            stamp, user, content = line.split(",")
            ts = float(stamp.strip())  # float() keeps U+001C..U+001F; strip() drops them
        except ValueError:  # not three fields, or no number before the first comma
            ts = math.nan
        if isfinite(ts) and (user := user.strip()) and (content := content.strip()):
            times.append(ts)
            users.append(user_codes.setdefault(user, len(user_codes)))
            contents.append(content_codes.setdefault(content, len(content_codes)))
        elif line.strip():
            malformed += 1
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


def parse_trace_file(path):
    """Parse the trace file at ``path``, skipping a leading UTF-8 byte-order
    mark; an unreadable or non-UTF-8 file raises ``TraceError``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return parse_trace(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc


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
    if num_files < 1:
        raise ValueError("num_files must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    ranks = np.arange(1, num_files + 1, dtype=float)
    weights = ranks ** (-alpha)
    return Popularity(weights / weights.sum())


def generate_requests(popularity, num_requests, users, seed):
    """Sample a synthetic trace: file by inverse-CDF draw from the
    popularity, user uniformly from ``users``, timestamps equal to the event
    index. Bit-for-bit reproducible per seed."""
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    if not users:
        raise ValueError("users must be non-empty")
    ids = {}
    user_codes = np.array([ids.setdefault(user, len(ids)) for user in users],
                          dtype=np.intp)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(popularity.as_array())
    draws = np.searchsorted(cdf, rng.random(num_requests), side="right")
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
    """
    if window < 0 or window > len(trace.file_ids):
        raise ValueError("window must lie within the trace length")
    F = trace.catalog_size
    counts = np.bincount(trace.file_ids[:window], minlength=F + 1)[1:]
    return Popularity((counts + smoothing) / (window + smoothing * F))


def assign_users(user_ids, num_bs, seed):
    """Assign each user a home BS, i.i.d. uniform over 1..num_bs;
    deterministic per seed."""
    if num_bs < 1:
        raise ValueError("num_bs must be >= 1")
    rng = np.random.default_rng(seed)
    homes = rng.integers(1, num_bs + 1, size=len(user_ids))
    return {user: int(home) for user, home in zip(user_ids, homes)}
