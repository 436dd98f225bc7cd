"""Every public name has a caller outside the unit tests.

A name that ``ds_consensus/__init__.py`` imports must be used somewhere in
the program (``src/``, not counting the line that defines it), in the
acceptance suite or in the benchmark harness (``perfbench/``).  A public
function that only the unit tests call either gains a real caller or is
removed.  Uses are read from the token stream, so comments do not count;
words inside string literals do, because the benchmark's tracer names what
it wraps by string.  Nor does any dataclass take a cache field (a field
named ``_x``) as a constructor argument, or generate an ``__eq__`` that
compares arrays.
"""

import ast
import dataclasses
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import ds_consensus

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "ds_consensus" / "__init__.py"
_STRINGS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def exported_names() -> list[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names(path: Path) -> set[str]:
    """Names the file uses: its name tokens, except the one a ``def`` or
    ``class`` defines, and the words of its string literals."""
    used, previous = set(), None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            used.add(token.string)
        elif token.type in _STRINGS:
            used.update(re.findall(r"\w+", token.string))
        if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = token.string
    return used


def callers() -> set[str]:
    files = [p for p in (ROOT / "src").rglob("*.py") if p != INIT]
    files += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").rglob("*.py")]
    return set().union(*map(used_names, files))


def test_every_exported_name_has_a_caller_outside_the_unit_tests():
    names = exported_names()
    assert "BodyOfEvidence" in names and "run_simulation" in names
    used = callers()
    assert [name for name in names if name not in used] == []


@pytest.mark.parametrize("source,used", [
    ("def f():\n    pass\n", set()),
    ("class C:\n    pass\n", set()),
    ("def f():\n    return g()  # h\n", {"g"}),
    ("x = getattr(m, 'f')\n", {"getattr", "m", "f"}),
])
def test_a_definition_is_not_a_use(tmp_path, source, used):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert used_names(path) - {"def", "class", "pass", "return", "x"} == used


def package_dataclasses() -> list[type]:
    return [cls for info in pkgutil.iter_modules(ds_consensus.__path__)
            for cls in vars(importlib.import_module(f"ds_consensus.{info.name}")).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)]


def test_no_dataclass_takes_a_cache_field():
    # a cache given to __init__ could disagree with the fields it is derived from
    classes = package_dataclasses()
    assert len(classes) > 10
    for cls in classes:
        taken = [f.name for f in dataclasses.fields(cls) if f.init and f.name.startswith("_")]
        assert taken == [], f"{cls.__qualname__} takes {taken}"


def test_no_dataclass_generates_eq_over_an_array_field():
    # numpy's == is elementwise, so a generated __eq__ that reaches an array
    # raises on ``a == b``, and a frozen class's generated __hash__ on hash(a)
    compared = {cls.__name__: {word for f in dataclasses.fields(cls) if f.compare
                               for word in re.findall(r"\w+", str(f.type))}
                for cls in package_dataclasses() if cls.__dataclass_params__.eq}
    assert "DrivenChain" in compared and "Frame" in compared
    unsafe, grown = {"ndarray"}, True
    while grown:  # a field whose type compares arrays compares them too
        reach = {name for name, words in compared.items() if words & unsafe}
        grown = not reach <= unsafe
        unsafe |= reach
    assert sorted(unsafe - {"ndarray"}) == []


def test_objects_that_hold_arrays_compare_and_hash_by_identity():
    a, b = ds_consensus.load_scenario("fig4a-pmf"), ds_consensus.load_scenario("fig4a-pmf")
    result = ds_consensus.run_simulation(a, 0.5)
    for x, y in ((a, b), (a.state, b.state), (a.agents[0], b.agents[0]),
                 (a.agents[0].boe, b.agents[0].boe), (result, ds_consensus.run_simulation(a, 0.5)),
                 (result.report, result.report)):
        assert x == x and (x == y) is (x is y) and len({x, y}) == 1 + (x is not y)
