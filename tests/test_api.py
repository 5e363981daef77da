"""The public API is one list: ``octocache.__all__``, the public names of the
``octocache`` namespace and README's "Public names" are the same set, and
README's library example runs and gives the values its comments state.
Each input guard that the CLI's own range checks pre-empt states its limit
when the library is called directly."""

import ast
import io
import re
import sys
import types
from pathlib import Path

import pytest

import octocache
from octocache import (CacheCapacities, Catalog, ExperimentConfig, Placement,
                       Popularity, assign_users, build_paper_topology,
                       capacities_from_budget, cli, generate_requests,
                       zipf_popularity)

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


@pytest.mark.parametrize("call, message", [
    (lambda *_: zipf_popularity(0, 0.8), "num_files must be >= 1"),
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
])
def test_input_guard_states_its_limit(call, message, tmp_path, monkeypatch,
                                      capsys):
    try:
        text = call(tmp_path, monkeypatch, capsys)
    except ValueError as exc:
        text = str(exc)
    assert re.search(message, text)
