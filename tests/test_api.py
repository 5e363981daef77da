"""The public API is one list: ``octocache.__all__``, the public names of the
``octocache`` namespace and README's "Public names" are the same set, and
README's library example runs and gives the values its comments state."""

import ast
import re
import types
from pathlib import Path

import octocache
from octocache import Placement

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
