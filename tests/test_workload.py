import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octocache import (EmptyTraceError, TraceError, TraceFormatError,
                       assign_users, estimate_popularity, generate_requests,
                       parse_trace_file, zipf_popularity)
from octocache.workload import parse_trace, serialize_trace

# ------------------------------------------------------------------ parsing

def test_parse_three_line_example():
    trace = parse_trace("1,u1,vA\n2,u2,vB\n3,u1,vA\n")
    assert trace.catalog_size == 2
    assert [(e.time, e.user_id, e.file_id) for e in trace.events] == [
        (1.0, "u1", 1), (2.0, "u2", 2), (3.0, "u1", 1)]
    assert trace.content_labels == ("vA", "vB")
    assert trace.malformed_lines == 0


def test_parse_detects_header():
    trace = parse_trace("timestamp,user_id,content_id\n1,u1,vA\n")
    assert len(trace.events) == 1 and trace.malformed_lines == 0


def test_parse_counts_nonfinite_timestamp_malformed():
    lines = [f"{i},u{i},c{i}" for i in range(3, 12)]
    trace = parse_trace("\n".join(lines[:1] + ["nan,u,x"] + lines[1:]) + "\n")
    assert trace.malformed_lines == 1
    times = [e.time for e in trace.events]
    assert times == sorted(times) and len(times) == 9


def test_parse_strips_a_timestamp_as_str_strip_does():
    # float() alone rejects the separators U+001C..U+001F that strip() removes
    for space in (" ", "\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u3000"):
        trace = parse_trace(f"{space}4{space},u,x\n1,v,y\n")
        assert [e.time for e in trace.events] == [1.0, 4.0]
        assert trace.malformed_lines == 0


def test_parse_file_non_utf8_is_trace_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,u1,caf\xe9\n")
    with pytest.raises(TraceError):
        parse_trace_file(path)


def test_parse_sorts_stably():
    trace = parse_trace("5,u1,a\n1,u2,b\n5,u3,c\n")
    assert [e.user_id for e in trace.events] == ["u2", "u1", "u3"]
    # interning follows the sorted stream
    assert trace.content_labels == ("b", "a", "c")


def test_parse_counts_malformed():
    trace = parse_trace("\n".join(["x,y"] + [f"{i},u,f{i}" for i in range(20)]))
    assert trace.malformed_lines == 1
    assert len(trace.events) == 20


def test_parse_rejects_mostly_malformed():
    with pytest.raises(TraceFormatError):
        parse_trace("1,u1,a\nbad\nbad2\nalso bad\n")


def test_parse_rejects_empty():
    with pytest.raises(EmptyTraceError):
        parse_trace("")
    with pytest.raises(EmptyTraceError):
        parse_trace("timestamp,user_id,content_id\n")


def test_roundtrip_fixed():
    first = parse_trace("3,u2,b\n1,u1,a\n2,u1,b\n")
    again = parse_trace(serialize_trace(first))
    assert again == first


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 50), st.floats(0, 2e9)),
                          st.integers(1, 9), st.integers(1, 9)),
                min_size=1, max_size=40))
def test_roundtrip_property(rows):
    # epoch-style float timestamps need more than 6 significant digits
    text = "\n".join(f"{t},u{u},c{c}" for t, u, c in rows)
    first = parse_trace(text)
    assert parse_trace(serialize_trace(first)) == first


def test_assignment_coverage_enforced():
    trace = parse_trace("1,u1,a\n2,u2,a\n")
    with pytest.raises(ValueError):
        trace.with_assignment({"u1": 1})
    full = trace.with_assignment({"u1": 1, "u2": 2})
    assert full.user_assignment == {"u1": 1, "u2": 2}


def test_parse_file_skips_utf8_bom(tmp_path):
    # a headerless trace that starts with a byte-order mark keeps its first request
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeff1,u,a\n2,u,b\n".encode("utf-8"))
    trace = parse_trace_file(path)
    assert [(e.time, e.user_id, e.file_id) for e in trace.events] == [
        (1.0, "u", 1), (2.0, "u", 2)]
    assert trace.malformed_lines == 0


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_text_and_file_split_lines_alike(ending, tmp_path):
    lines = ["timestamp,user_id,content_id", "3,u1,a", "", "1,u2,b", "2,u1,a"]
    text = ending.join(lines) + ending
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    want = parse_trace("\n".join(lines) + "\n")
    assert len(want.events) == 3
    assert parse_trace(text) == want
    assert parse_trace_file(path) == want


def reference_parse(text):
    """The per-line parser the columnar one replaced: a list of
    (time, user, file index) rows in time order, the content labels and the
    malformed-line count."""
    rows, malformed, considered, first = [], 0, 0, True
    for raw in io.StringIO(text, newline=""):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if first:
            first = False
            if len(fields) == 3:
                try:
                    float(fields[0])
                except ValueError:
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
    if considered and malformed / considered > 0.10:
        raise TraceFormatError("too many malformed lines")
    if not rows:
        raise EmptyTraceError("no rows")
    rows.sort(key=lambda r: r[0])
    interned = {}
    events = [(ts, user, interned.setdefault(content, len(interned) + 1))
              for ts, user, content in rows]
    return events, tuple(interned), malformed


_STAMPS = st.one_of(st.integers(-5, 30).map(str),
                    st.floats(-1e3, 1e3).map(repr),
                    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400",
                                     "t3", "0x1", "1_0", " 7 ", "\x1c4",
                                     "\xa05", "-0", "timestamp"]))
_IDS = st.one_of(st.sampled_from(["u1", "u2", "c1", "c2", " u1 ", "", " ",
                                  "\t", "\x0b", "x y"]),
                 st.text("abc ", max_size=3))
_GOOD_LINES = st.tuples(
    st.one_of(st.integers(-5, 30).map(str), st.floats(-1e3, 1e3).map(repr),
              st.sampled_from([" 7 ", "-0", "1e2", "\xa05"])),
    st.sampled_from(["u1", "u2", " u3 "]),
    st.sampled_from(["c1", "c2", " c3", "c4 "])).map(",".join)
_ANY_LINES = st.one_of(
    st.tuples(_STAMPS, _IDS, _IDS).map(",".join),                 # three fields
    st.lists(_IDS, min_size=0, max_size=5).map(",".join),          # any arity
    st.sampled_from(["", "   ", "\t", "timestamp,user_id,content_id"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_GOOD_LINES, max_size=40), st.lists(_ANY_LINES, max_size=5),
       st.data())
def test_columnar_parse_equals_per_line_parse(good, fuzzed, data):
    # mostly good lines, so that some inputs with malformed lines are accepted
    text = "\n".join(data.draw(st.permutations(fuzzed + good)))
    try:
        want = reference_parse(text)
    except (EmptyTraceError, TraceFormatError) as exc:
        with pytest.raises(type(exc)):
            parse_trace(text)
        return
    trace = parse_trace(text)
    events, labels, malformed = want
    assert [(e.time, e.user_id, e.file_id) for e in trace.events] == events
    assert trace.content_labels == labels and trace.catalog_size == len(labels)
    assert trace.malformed_lines == malformed
    assert trace.users() == list(dict.fromkeys(user for _, user, _ in events))


def test_events_view_builds_events_only_when_read(monkeypatch):
    import octocache.workload

    trace = parse_trace("3,u2,b\n1,u1,a\n2,u1,b\n")
    built = []
    real = octocache.workload.RequestEvent
    monkeypatch.setattr(octocache.workload, "RequestEvent",
                        lambda **kw: built.append(kw) or real(**kw))
    view = trace.events
    assert len(view) == 3 and len(view[1:]) == 2 and not built
    assert view[-1] == real(time=3.0, user_id="u2", file_id=2)
    assert list(view[::-1]) == [view[2], view[1], view[0]]
    assert view == [real(1.0, "u1", 1), real(2.0, "u1", 2), real(3.0, "u2", 2)]
    assert view[1:] != view[:2] and view[3:] == []


# --------------------------------------------------------------------- zipf

def test_zipf_two_files_alpha_one():
    pop = zipf_popularity(2, 1.0)
    assert pop.as_array() == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_zipf_alpha_zero_uniform():
    pop = zipf_popularity(5, 0.0)
    assert pop.as_array() == pytest.approx([0.2] * 5, abs=1e-15)


def test_zipf_sums_to_one_tightly():
    for alpha in (0.0, 0.6, 0.8, 1.2):
        assert abs(zipf_popularity(10_000, alpha).as_array().sum() - 1.0) < 1e-12


def test_zipf_strictly_decreasing_for_positive_alpha():
    probs = zipf_popularity(100, 0.7).as_array()
    assert np.all(np.diff(probs) < 0)


def test_zipf_against_high_precision_sum():
    # independent oracle: extended-precision harmonic sum via mpmath
    import mpmath

    mpmath.mp.dps = 50
    F, alpha = 10_000, 0.8
    denom = mpmath.fsum(mpmath.mpf(n) ** (-alpha) for n in range(1, F + 1))
    probs = zipf_popularity(F, alpha).as_array()
    for k in (1, 2, 10, 100, F):
        want = float(mpmath.mpf(k) ** (-alpha) / denom)
        assert probs[k - 1] == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- generation

def test_generate_zero_requests():
    trace = generate_requests(zipf_popularity(5, 0.8), 0, ["u"], seed=1)
    assert trace.events == [] and trace.catalog_size == 5


def test_generate_single_file():
    trace = generate_requests(zipf_popularity(1, 0.8), 50, ["a", "b"], seed=1)
    assert all(e.file_id == 1 for e in trace.events)


def test_generate_requires_users():
    with pytest.raises(ValueError):
        generate_requests(zipf_popularity(2, 0.8), 5, [], seed=1)


def test_generate_rank1_frequency_tracks_popularity():
    pop = zipf_popularity(1000, 0.8)
    trace = generate_requests(pop, 100_000, list(range(20)), seed=99)
    count = sum(1 for e in trace.events if e.file_id == 1)
    want = pop.as_array()[0]
    assert abs(count / 100_000 - want) / want < 0.10


def test_generate_reproducible():
    pop = zipf_popularity(50, 0.6)
    a = generate_requests(pop, 2000, ["x", "y"], seed=5)
    b = generate_requests(pop, 2000, ["x", "y"], seed=5)
    assert a == b
    assert a != generate_requests(pop, 2000, ["x", "y"], seed=6)


def test_generate_timestamps_are_event_indices():
    trace = generate_requests(zipf_popularity(3, 0.8), 10, ["u"], seed=2)
    assert [e.time for e in trace.events] == [float(i) for i in range(10)]


# --------------------------------------------------------------- estimation

def test_estimate_example():
    trace = parse_trace("1,u,f1\n2,u,f1\n3,u,f2\n")
    pop = estimate_popularity(trace, window=3)
    assert pop.as_array() == pytest.approx([3 / 5, 2 / 5])


def test_estimate_window_zero_uniform():
    trace = parse_trace("1,u,a\n2,u,b\n")
    assert estimate_popularity(trace, 0).as_array() == pytest.approx([0.5, 0.5])


def test_estimate_window_bounds():
    trace = parse_trace("1,u,a\n")
    with pytest.raises(ValueError):
        estimate_popularity(trace, 2)


def test_estimate_uniform_trace_converges():
    rng = np.random.default_rng(4)
    lines = [f"{i},u,c{int(rng.integers(10))}" for i in range(20_000)]
    trace = parse_trace("\n".join(lines))
    pop = estimate_popularity(trace, len(lines))
    assert pop.as_array() == pytest.approx([0.1] * 10, rel=0.05)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(12))))
def test_estimate_permutation_invariant_within_window(order):
    files = [1, 1, 2, 3, 1, 2, 3, 3, 3, 2, 1, 2]
    shuffled = [files[i] for i in order]
    base = parse_trace("\n".join(f"{i},u,c{f}" for i, f in enumerate(files)))
    perm = parse_trace("\n".join(f"{i},u,c{f}" for i, f in enumerate(shuffled)))
    a = estimate_popularity(base, 12)
    b = estimate_popularity(perm, 12)
    # compare by original label, not by interned index
    by_label_a = {base.label_of(k + 1): a.as_array()[k] for k in range(3)}
    by_label_b = {perm.label_of(k + 1): b.as_array()[k] for k in range(3)}
    assert by_label_a == pytest.approx(by_label_b)


def test_estimate_equals_counting_loop():
    # bit for bit against a per-event counting loop, empty and full windows included
    rng = np.random.default_rng(8)
    for _ in range(50):
        trace = generate_requests(zipf_popularity(int(rng.integers(1, 40)), 0.8),
                                  int(rng.integers(1, 300)), ["u"],
                                  int(rng.integers(1 << 30)))
        num_files, n = trace.catalog_size, len(trace.events)
        for window in (0, int(rng.integers(0, n + 1)), n):
            counts = np.zeros(num_files)
            for ev in trace.events[:window]:
                counts[ev.file_id - 1] += 1
            want = (counts + 0.5) / (window + 0.5 * num_files)
            got = estimate_popularity(trace, window, smoothing=0.5).as_array()
            assert got.tolist() == want.tolist()


# --------------------------------------------------------------- assignment

def test_assign_single_bs():
    assert set(assign_users(["a", "b"], 1, seed=0).values()) == {1}


def test_assign_concentration():
    assignment = assign_users(list(range(70_000)), 7, seed=11)
    counts = np.bincount(list(assignment.values()), minlength=8)[1:]
    assert np.all(np.abs(counts - 10_000) <= 500)


def test_assign_deterministic():
    users = [f"u{i}" for i in range(100)]
    assert assign_users(users, 5, seed=3) == assign_users(users, 5, seed=3)
    assert assign_users(users, 5, seed=3) != assign_users(users, 5, seed=4)
