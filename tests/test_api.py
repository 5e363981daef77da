"""The public API is one list: ``octocache.__all__``, the public names of the
``octocache`` namespace and README's "Public names" are the same set, and
README's library example runs and gives the values its comments state.
Each input guard that the CLI's own range checks pre-empt states its limit
when the library is called directly, and the library's entry points raise
nothing but their documented errors on any input."""

import ast
import hashlib
import io
import math
import re
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octocache
from octocache import (POLICY_NAMES, CacheCapacities, Catalog, ConfigError,
                       ExperimentConfig, InfeasibleInstanceError,
                       OracleSizeError, Placement, Popularity, Topology,
                       TraceError, assign_users, brute_force_optimal,
                       build_paper_topology, capacities_from_budget, cli,
                       derive_seed, estimate_popularity, generate_requests, pcd, rcr,
                       route_request, rows_to_csv, run_experiment, run_sweep,
                       zipf_popularity)
from octocache.engine import rows_to_json
from octocache.workload import parse_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    return README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]


def readme_names():
    listed = library_section().split("### Public names\n", 1)[1]
    items = re.findall(r"^- .*(?:\n  .*)*", listed, flags=re.M)
    return [name for item in items for name in re.findall(r"`(\w+)`", item)]


def test_all_namespace_and_readme_list_agree():
    names = readme_names()
    assert len(names) == len(set(names)) == 43
    assert sorted(octocache.__all__) == sorted(names)
    exported = {name for name, value in vars(octocache).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == set(names)


def stated_value(comment, ns):
    """The value a README comment states: ``same placement`` (the greedy's),
    a placement written ``C0={1}, C1={2}``, or a Python literal."""
    if comment == "same placement":
        return ns["report"].placement
    cells = re.findall(r"C\d+=\{([\d, ]*)\}", comment)
    if cells:
        contents = [ast.literal_eval(f"[{files}]") for files in cells]
        return Placement(ns["caps"], ns["catalog"].num_files, contents)
    return ast.literal_eval(comment)


def test_readme_example_gives_the_values_its_comments_state():
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    ns = {}
    exec(code, ns)
    checked = []
    for expr, comment in re.findall(r"^(\S.*?)\s+# (.*)$", code, flags=re.M):
        try:
            value = eval(expr, ns)
        except SyntaxError:
            continue  # an assignment: its comment describes, not states
        assert value == stated_value(comment, ns), expr
        checked.append(comment)
    assert {"C0={1}, C1={2}, C2={3}", "170.0", "30.0",
            "same placement"} <= set(checked)


def non_ascii_header_on_ascii_stdout(tmp_path, monkeypatch, capsys):
    """The CLI's stderr after writing a header that echoes a non-ASCII trace
    path to a stdout that encodes only ASCII."""
    trace = tmp_path / "caf\u00e9.csv"
    trace.write_text("".join(f"{i},u{i % 3},c{i % 5}\n" for i in range(20)),
                     encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(),
                                                        encoding="ascii"))
    assert cli.main(["simulate", "--policy", "eo", "--trace", str(trace),
                     "--cache-total", "1GB"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


TWO_BS = build_paper_topology(2, 1)
TWO_FILES = parse_trace("1,u,a\n2,u,b\n")
SMOOTHING_LIMIT = (r"^smoothing must be a finite number >= 0, "
                   r"and > 0 when window is 0$")


@pytest.mark.parametrize("call, message", [
    (lambda *_: zipf_popularity(0, 0.8), "num_files must be >= 1"),
    (lambda *_: zipf_popularity(4.5, 0.8), "num_files must be a whole number"),
    (lambda *_: Catalog(2.5), "num_files must be a whole number"),
    (lambda *_: Catalog(float("nan")), "num_files must be a whole number"),
    (lambda *_: Catalog("3"), "num_files must be a whole number"),
    (lambda *_: Catalog(None), "num_files must be a whole number"),
    (lambda *_: zipf_popularity("3", 0.8), "num_files must be a whole number"),
    (lambda *_: run_experiment(ExperimentConfig(policy="lru", zipf_alpha=0.8,
                                                num_files="3",
                                                total_cache_bytes=10**9)),
     "num_files must be a whole number"),
    (lambda *_: zipf_popularity(3, -0.1), "alpha must be >= 0"),
    (lambda *_: generate_requests(zipf_popularity(2, 0.8), -1, [1], 0),
     "num_requests must be >= 0"),
    (lambda *_: generate_requests(zipf_popularity(2, 0.8), 5, [], 0),
     "users must be non-empty"),
    (lambda *_: assign_users([1, 2], 0, 0), "num_bs must be >= 1"),
    (lambda *_: capacities_from_budget(-1, TWO_BS, Catalog(3)),
     "total_bytes must be >= 0"),
    (lambda *_: capacities_from_budget(10**9, TWO_BS, Catalog(3), -1),
     "cloud_edge_ratio must be >= 0"),
    (lambda *_: build_paper_topology(0, 1), "num_bs must be >= 1"),
    (lambda *_: Popularity.from_weights([0.0, 0.0]),
     "weights must have positive sum"),
    (lambda *_: ExperimentConfig(policy="eo", zipf_alpha=0.8, total_cache_bytes=1,
                                 warmup_frac=1.0).validate(),
     r"warmup_frac must lie in \[0, 1\)"),
    (lambda *_: repr(Placement(CacheCapacities(cloud=1, edge=(2,)), 3,
                               [{2}, {3, 1}])),
     r"^Placement\(C0=\[2\], C1=\[1, 3\]\)$"),
    (non_ascii_header_on_ascii_stdout,
     "octocache: config error: cannot write to stdout"),
    (lambda *_: estimate_popularity(TWO_FILES, 0, 0.0), SMOOTHING_LIMIT),
    (lambda *_: estimate_popularity(TWO_FILES, 0, float("inf")), SMOOTHING_LIMIT),
    (lambda *_: estimate_popularity(TWO_FILES, 1, float("inf")), SMOOTHING_LIMIT),
    (lambda *_: estimate_popularity(TWO_FILES, 1, float("nan")), SMOOTHING_LIMIT),
    (lambda *_: estimate_popularity(TWO_FILES, 1, -1.0), SMOOTHING_LIMIT),
    (lambda *_: zipf_popularity(3, math.nan), "^alpha must be >= 0$"),
    (lambda *_: replace(TWO_BS, num_bs=2.5), "num_bs must be a whole number"),
    (lambda *_: build_paper_topology(2.5, 1), "num_bs must be a whole number"),
    (lambda *_: assign_users([1, 2], 2.5, 0), "num_bs must be a whole number"),
    (lambda *_: generate_requests(zipf_popularity(2, 0.8), 2.5, [1], 0),
     "num_requests must be a whole number"),
    (lambda *_: estimate_popularity(TWO_FILES, 1.5), "window must be a whole number"),
    (lambda *_: capacities_from_budget(math.inf, TWO_BS, Catalog(3)),
     "total_bytes must be a whole number"),
    (lambda *_: capacities_from_budget(10**9, TWO_BS, Catalog(3), 2.5),
     "cloud_edge_ratio must be a whole number"),
    (lambda *_: run_experiment(ExperimentConfig(policy="eo", zipf_alpha=0.8,
                                                num_users=2.5,
                                                total_cache_bytes=10**9)),
     "num_users must be a whole number"),
    (lambda *_: build_paper_topology(3, 1.5), "^seed must be a whole number$"),
    (lambda *_: build_paper_topology(3, -1), "^seed must be >= 0$"),
    (lambda *_: assign_users([1, 2], 2, float("nan")), "^seed must be a whole number$"),
    (lambda *_: generate_requests(zipf_popularity(2, 0.8), 5, [1], "1"),
     "^seed must be a whole number$"),
    (lambda *_: derive_seed(-1, "topology"), "^master must be >= 0$"),
    (lambda *_: ExperimentConfig(policy="eo", zipf_alpha=0.8, total_cache_bytes=1,
                                 master_seed=1.5).validate(),
     r"^master_seed must be a whole number, got 1\.5$"),
    (lambda *_: run_experiment(ExperimentConfig(policy="eo", zipf_alpha=0.8,
                                                master_seed=-1,
                                                total_cache_bytes=10**9)),
     "^master_seed must be >= 0, got -1$"),
    (lambda *_: Placement(CacheCapacities(cloud=1, edge=(1,)), 2.5),
     "num_files must be a whole number"),
    (lambda *_: Placement(CacheCapacities(cloud=1, edge=(1,)), 0), "^num_files must be >= 1$"),
])
def test_input_guard_states_its_limit(call, message, tmp_path, monkeypatch,
                                      capsys):
    try:
        text = call(tmp_path, monkeypatch, capsys)
    except ValueError as exc:
        text = str(exc)
    assert re.search(message, text)


#: What the library's entry points may raise on bad input; the CLI maps
#: each onto its exit-code contract.
LIBRARY_ERRORS = (ConfigError, TraceError, InfeasibleInstanceError,
                  OracleSizeError, ValueError)

_NAN, _INF = float("nan"), float("inf")


#: Each entry point's arguments, by the name the strategy below draws them
#: under; ``run_experiment`` reads the network arguments only when its
#: config is given the object they build. ``rcr`` lists its own arguments
#: first, and ``route_request`` breaks only its own, so that more of their
#: calls get past the network guards the other entries already reach.
_NETWORK = ("num_bs", "edge_delay", "peer_delay", "cdn_delay", "users",
            "num_files", "cloud", "edges", "weights")
_ARGUMENTS = {
    "run_experiment": _NETWORK + (
        "policy", "file_size_mb", "total_cache_bytes", "cloud_edge_ratio",
        "zipf_alpha", "trace_path", "num_requests", "num_users", "warmup_frac",
        "master_seed", "user_assignment"),
    "pcd": _NETWORK,
    "brute_force_optimal": _NETWORK,
    "rcr": ("new_file", "contents") + _NETWORK,
    "route_request": ("bs", "file", "contents"),
}


@st.composite
def _library_calls(draw):
    """One call of ``run_experiment``, ``pcd``, ``brute_force_optimal``,
    ``rcr`` or ``route_request`` as a thunk that also builds its inputs. Each
    argument takes a valid value except for up to two of the entry point's,
    drawn to take an invalid one, so that most calls get past the first
    guard. An index may be drawn as a float, integral or not."""
    # run_experiment reads the most arguments, so it gets half the calls
    entry = draw(st.sampled_from(sorted(_ARGUMENTS) + ["run_experiment"] * 3))
    broken = {draw(st.sampled_from(_ARGUMENTS[entry]))
              for _ in range(draw(st.sampled_from([0, 1, 1, 2])))}

    def pick(name, valid, invalid):
        return draw(st.sampled_from(invalid if name in broken else valid))

    num_bs = pick("num_bs", [1, 2, 3], [0, -1])
    R = max(num_bs, 1)
    edge = pick("edge_delay", [[1.0, 2.0, 5.0][:R]],
                [[0.0] * R, [-1.0] * R, [_NAN] * R, [_INF] * R, [1.0] * (R + 1)])
    peer = [[0.0 if r == k else 3.0 for k in range(R)] for r in range(R)]
    peer[0][-1] = pick("peer_delay", [peer[0][-1]], [0.0, -1.0, _NAN, _INF])
    cdn = pick("cdn_delay", [50.0], [1.0, _INF, _NAN])
    users = pick("users", [{"u": 1}, {}], [{"u": 0}, {"u": R + 1}, {"u": 1.5}])
    num_files = pick("num_files", [1, 2, 4], [0, -1, 2.5])
    F = max(int(num_files), 0)
    cloud = pick("cloud", [0, 1, 2, 5], [-1])
    edges = pick("edges", [(1,) * R, (0,) * R, (5,) * R],
                 [(-1,) * R, (1,) * (R + 1), ()])
    weights = pick("weights", [[1.0] * F, [float(F - k) for k in range(F)]],
                   [[1.0] * (F + 1), [0.0] * F, [-1.0] * F, [_NAN] * F])

    def inputs():
        return (Topology(num_bs=num_bs, edge_delay=tuple(edge),
                         peer_delay=tuple(map(tuple, peer)), cdn_delay=cdn,
                         users=users),
                Catalog(num_files=num_files), Popularity.from_weights(weights),
                CacheCapacities(cloud=cloud, edge=edges))

    if entry == "run_experiment":
        fields = {
            "policy": pick("policy", POLICY_NAMES, ["lifo"]),
            "num_bs": num_bs,
            "num_files": num_files,
            "file_size_mb": pick("file_size_mb", [20.0, 1.0], [1e-9, 0.0, _NAN]),
            "total_cache_bytes": pick("total_cache_bytes", [10**8, 10**12, 0],
                                      [-5, None, _INF]),
            "cloud_edge_ratio": pick("cloud_edge_ratio", [4, 0, 1], [-1]),
            "zipf_alpha": pick("zipf_alpha", [0.8, 0.0, 3.0], [-1.0, _NAN, None]),
            "trace_path": pick("trace_path", [None], ["/nonexistent/trace.csv"]),
            "num_requests": pick("num_requests", [40, 1], [0, -1, 2.5, _NAN]),
            "num_users": pick("num_users", [5, 1], [0, -1, 2.5, _NAN]),
            "warmup_frac": pick("warmup_frac", [0.2, 0.0, 0.9], [1.0, -0.1, _NAN]),
            "master_seed": pick("master_seed", [0, 1, 1.0], [-1, 1.5, _NAN]),
            "rcr_enabled": draw(st.booleans()),
            "user_assignment": pick("user_assignment", [None, {"u": 1}],
                                    [{}, {"u": R + 1}]),
        }
        given_inputs = draw(st.sets(st.sampled_from(["topology", "popularity",
                                                     "capacities"])))

        def call():
            built = dict(zip(("topology", "catalog", "popularity", "capacities"),
                             inputs()))
            return run_experiment(ExperimentConfig(
                **fields, **{name: built[name] for name in given_inputs}))
        return call

    new_file = pick("new_file", list(range(1, F + 1)) or [1], [1.5, 1.0, 0, F + 1])
    # a valid placement leaves the missed file out
    others = st.sampled_from([f for f in range(1, F + 1) if f != new_file] or [1])
    contents = [draw(st.sets(others, max_size=2 if F > 1 else 0))
                for _ in range(pick("contents", [R + 1], [R + 1, 1, R + 2]))]
    if "contents" in broken and F:
        contents[0].add(draw(st.sampled_from([1.5, 1.0, new_file])))
    bs = pick("bs", list(range(1, R + 1)), [1.5, 1.0, 0, R + 1])
    file = pick("file", list(range(1, F + 1)) or [1], [1.5, 1.0, 0, F + 1])

    def call():
        topology, catalog, popularity, capacities = inputs()
        if entry == "pcd":
            return pcd(topology, catalog, popularity, capacities)
        if entry == "brute_force_optimal":
            return brute_force_optimal(topology, catalog, popularity, capacities)
        placement = Placement(capacities, num_files, contents)
        if entry == "route_request":
            return route_request(placement, topology, bs, file)
        return rcr(placement, new_file, topology, popularity)
    return call


@settings(max_examples=300, deadline=None, derandomize=True)
@given(call=_library_calls())
def test_library_raises_only_its_documented_errors(call):
    try:
        call()
    except LIBRARY_ERRORS:
        pass


def test_whole_float_seeds_equal_ints():
    # a seed is read as a count >= 0 is: 1.0 is 1, and True is 1 as numpy
    # reads it; an int seed hashes the text it always did
    base = dict(policy="lru", zipf_alpha=0.8, num_bs=3, num_files=50, num_requests=500,
                num_users=20, total_cache_bytes=10**9)
    one = run_experiment(ExperimentConfig(**base, master_seed=1)).as_dict()
    for seed in (1.0, True, np.int64(1)):
        assert run_experiment(ExperimentConfig(**base, master_seed=seed)).as_dict() == one
        assert derive_seed(seed, "topology") == derive_seed(1, "topology")
        assert build_paper_topology(3, seed) == build_paper_topology(3, 1)
        assert assign_users(list("abcd"), 3, seed) == assign_users(list("abcd"), 3, 1)
        trace = generate_requests(zipf_popularity(5, 0.8), 30, [1, 2], seed)
        assert trace.file_ids.tolist() == generate_requests(
            zipf_popularity(5, 0.8), 30, [1, 2], 1).file_ids.tolist()
    digest = hashlib.sha256(b"7:workload").digest()
    assert derive_seed(7, "workload") == int.from_bytes(digest[:8], "big") >> 1


def test_seed_column_writes_the_validated_seed():
    # a whole float, True or a numpy int seed runs the instance of its int,
    # and the row it writes names that int, in CSV and in JSON alike
    base = ExperimentConfig(policy="eo", zipf_alpha=0.8, num_bs=2, num_files=20,
                            num_requests=200, num_users=5, total_cache_bytes=10**9)

    def written(seed):
        rows = run_sweep(replace(base, master_seed=seed), "zipf_alpha", [0.8])
        return rows_to_csv(rows), rows_to_json(rows)

    one = written(1)
    assert one[0].splitlines()[1].startswith("eo,0.8,1,")
    for seed in (1.0, True, np.int64(1)):
        assert written(seed) == one
        master = replace(base, master_seed=seed).seeds()["master"]
        assert master == 1 and type(master) is int


def test_whole_float_counts_equal_ints():
    def metrics(**counts):
        return run_experiment(ExperimentConfig(policy="octopus", zipf_alpha=0.8,
                                               **counts)).as_dict()

    assert (metrics(num_bs=3.0, num_files=50.0, num_requests=500.0, num_users=20.0,
                    total_cache_bytes=1e9, cloud_edge_ratio=4.0)
            == metrics(num_bs=3, num_files=50, num_requests=500, num_users=20,
                       total_cache_bytes=10**9, cloud_edge_ratio=4))
    assert (estimate_popularity(TWO_FILES, 1.0).as_array().tolist()
            == estimate_popularity(TWO_FILES, 1).as_array().tolist())
    num_bs = replace(TWO_BS, num_bs=2.0).num_bs
    assert num_bs == 2 and type(num_bs) is int
    caps = CacheCapacities(cloud=1, edge=(1,))
    assert Placement(caps, 2.0) == Placement(caps, 2)
    base = ExperimentConfig(policy="eo", zipf_alpha=0.8, num_bs=2, num_files=20,
                            num_requests=200, num_users=5, total_cache_bytes=10**9)
    assert (run_sweep(base, "zipf_alpha", [0.6, 0.8], jobs=2.0)
            == run_sweep(base, "zipf_alpha", [0.6, 0.8], jobs=2))
