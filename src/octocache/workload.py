"""Request workloads: trace ingestion, synthetic Zipf generation, empirical
popularity estimation, and user-to-BS assignment.

The on-disk trace format is a UTF-8 CSV with LF line endings and three
columns, ``timestamp,user_id,content_id``. A header row is optional and
detected by a non-numeric first field. Content ids are opaque; parsing
interns them to dense catalog indices 1..F in order of first appearance in
the time-sorted stream.
"""

from __future__ import annotations

import io
import math
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
    """An ordered request stream plus the user-to-BS assignment.

    ``events`` are sorted by time (stable). ``user_assignment`` maps user id
    to home BS and may be empty until :meth:`with_assignment` attaches one;
    replay requires every event's user to be covered. ``content_labels``
    keeps the original opaque content ids by catalog index for round-trip
    serialization.
    """

    events: list
    catalog_size: int
    user_assignment: dict = field(default_factory=dict)
    content_labels: tuple = ()
    malformed_lines: int = 0

    def __post_init__(self):
        if self.user_assignment:
            self._check_coverage(self.user_assignment)

    def _check_coverage(self, assignment):
        for ev in self.events:
            if ev.user_id not in assignment:
                raise ValueError(f"user {ev.user_id!r} missing from assignment")

    def users(self):
        """Distinct user ids in first-appearance order."""
        return list(dict.fromkeys(ev.user_id for ev in self.events))

    def with_assignment(self, assignment):
        self._check_coverage(assignment)
        return replace(self, user_assignment=dict(assignment))

    def label_of(self, file_id):
        if self.content_labels:
            return self.content_labels[file_id - 1]
        return str(file_id)

    def __eq__(self, other):
        return (isinstance(other, RequestTrace)
                and self.events == other.events
                and self.catalog_size == other.catalog_size
                and self.user_assignment == other.user_assignment
                and self.content_labels == other.content_labels)


def _looks_like_header(fields):
    if len(fields) != 3:
        return False
    try:
        float(fields[0])
    except ValueError:
        return True
    return False


def parse_trace(source):
    """Parse a request trace from text or a file-like character stream.

    Rows are stable-sorted by timestamp, then content ids are interned to
    dense indices in first-appearance order of the sorted stream. Malformed
    lines (wrong arity, non-numeric or non-finite timestamp, empty fields)
    are skipped and counted.

    Raises
    ------
    EmptyTraceError
        When no usable events remain.
    TraceFormatError
        When more than 10% of non-empty lines are malformed.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = []
    malformed = 0
    considered = 0
    first = True
    for raw in source:
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if first:
            first = False
            if _looks_like_header(fields):
                continue
        considered += 1
        if len(fields) != 3 or not all(fields):
            malformed += 1
            continue
        try:
            ts = float(fields[0])
        except ValueError:
            malformed += 1
            continue
        if not math.isfinite(ts):
            malformed += 1
            continue
        rows.append((ts, fields[1], fields[2]))
    if considered and malformed / considered > MALFORMED_LINE_TOLERANCE:
        raise TraceFormatError(
            f"{malformed} of {considered} lines malformed, above the "
            f"{MALFORMED_LINE_TOLERANCE:.0%} tolerance")
    if not rows:
        raise EmptyTraceError("no usable request events in input")
    rows.sort(key=lambda r: r[0])
    interned = {}
    labels = []
    events = []
    for ts, user, content in rows:
        idx = interned.get(content)
        if idx is None:
            idx = len(interned) + 1
            interned[content] = idx
            labels.append(content)
        events.append(RequestEvent(time=ts, user_id=user, file_id=idx))
    return RequestTrace(events=events, catalog_size=len(interned),
                        content_labels=tuple(labels), malformed_lines=malformed)


def parse_trace_file(path):
    """Parse the trace file at ``path``; an unreadable or non-UTF-8 file
    raises ``TraceError``."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return parse_trace(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc


def serialize_trace(trace):
    """Render a trace in the on-disk CSV format, header row included; parse
    round-trips it exactly."""
    out = [TRACE_HEADER]
    for ev in trace.events:
        time = np.format_float_positional(ev.time, trim="-")
        out.append(f"{time},{ev.user_id},{trace.label_of(ev.file_id)}")
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
    users = list(users)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(popularity.as_array())
    draws = np.searchsorted(cdf, rng.random(num_requests), side="right")
    files = np.minimum(draws, popularity.num_files - 1) + 1
    who = rng.integers(0, len(users), size=num_requests)
    events = [RequestEvent(time=float(i), user_id=users[u], file_id=int(f))
              for i, (u, f) in enumerate(zip(who, files))]
    return RequestTrace(events=events, catalog_size=popularity.num_files)


def estimate_popularity(trace, window, smoothing=1.0):
    """Empirical popularity of the trace's catalog over the first ``window``
    events with additive (Laplace) smoothing, so unseen files keep a nonzero
    probability.

    p_k = (count_k + smoothing) / (window + smoothing * F).
    """
    if window < 0 or window > len(trace.events):
        raise ValueError("window must lie within the trace length")
    F = trace.catalog_size
    files = np.fromiter((ev.file_id for ev in trace.events[:window]),
                        dtype=np.intp, count=window)
    counts = np.bincount(files, minlength=F + 1)[1:]
    return Popularity((counts + smoothing) / (window + smoothing * F))


def assign_users(user_ids, num_bs, seed):
    """Assign each user a home BS, i.i.d. uniform over 1..num_bs;
    deterministic per seed."""
    if num_bs < 1:
        raise ValueError("num_bs must be >= 1")
    rng = np.random.default_rng(seed)
    homes = rng.integers(1, num_bs + 1, size=len(user_ids))
    return {user: int(home) for user, home in zip(user_ids, homes)}
