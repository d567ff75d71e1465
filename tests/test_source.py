"""Checks on the package source itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ldplab"


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check made with one would vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _raise_texts(path):
    """(line, the string constants of the message joined) of every raise in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            parts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            yield node.lineno, "".join(parts)


def test_range_rules_are_raised_in_costs_only():
    # costs.positive_param, costs.moment_order_param and costs.int_param own
    # the positive, (1, 2] and count rules; a hand-written copy elsewhere
    # would drift from them
    phrases = ("must be positive", "must be non-negative", "requires positive", "(1, 2]", "must be a positive integer")
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "costs.py"
        for line, text in _raise_texts(path)
        if any(phrase in text for phrase in phrases)
    ]
    assert found == []


def test_suite_reports_are_built_by_verify_reports_only():
    # montecarlo.verify_reports owns the request's checks and puts each
    # suite's report together from its jobs' checks; a report built elsewhere
    # would be a second verify runner, with checks of its own
    found = [
        f"{path.name}:{getattr(top, 'name', top.lineno)}"
        for path in sorted(SOURCE.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "LemmaSuiteReport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == ["montecarlo.py:verify_reports"]


def test_stream_keys_are_read_from_the_table():
    # rng.STREAM_KEYS owns every stream's key; a number written into a key
    # elsewhere could share a stream with another purpose unseen
    keys = [
        (f"{path.name}:{node.lineno}", key)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "run_generator" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for key in node.args[1:] + [kw.value for kw in node.keywords if kw.arg == "run_index"]
    ]
    assert len(keys) >= 5
    found = [
        where
        for where, key in keys
        for c in ast.walk(key)
        if isinstance(c, ast.Constant) and type(c.value) in (int, float)
    ]
    assert found == []


def _names(node) -> set:
    """The Name ids and Attribute attrs within an expression (none for None)."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} if node else set()


def test_rejected_values_are_anchored_by_config_anchored_only():
    # config.anchored owns the rule that a rejected value's error names where
    # the value came from: an except handler that catches ValueError or
    # ConfigError and raises ConfigError or OSError outside it could drift
    # from it in its prefix, its chain or its pass-through of an error
    # already anchored
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [d for d in ast.walk(tree) if (path.name, getattr(d, "name", None)) == ("config.py", "anchored")]
        owner = {h for d in owners for h in ast.walk(d)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or node in owner:
                continue
            raised = {
                name
                for r in ast.walk(node)
                if isinstance(r, ast.Raise)
                for name in _names(r.exc.func if isinstance(r.exc, ast.Call) else r.exc)
            }
            if _names(node.type) & {"ValueError", "ConfigError"} and raised & {"ConfigError", "OSError"}:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_svg_line_and_text_markup_is_written_once():
    # svgplot's <line> and <text> writers spell out each element once; a
    # hand-written copy elsewhere in the chart could drift from them
    source = (SOURCE / "svgplot.py").read_text(encoding="utf-8")
    assert {tag: source.count(tag) for tag in ("<line ", "<text ")} == {"<line ": 1, "<text ": 1}


def test_package_imports_numpy_and_the_standard_library_only():
    # numpy is the one runtime dependency; scipy is a reference for the tests only
    allowed = {"numpy", *sys.stdlib_module_names}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: a module of the package
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # the standard library has it from Python 3.11
    project = tomllib.loads((SOURCE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # a requirement's name is its leading run of name characters (PEP 508)
    assert [re.match(r"[A-Za-z0-9._-]+", req).group() for req in project["dependencies"]] == ["numpy"]


def _referenced_names(tree) -> set:
    """The names a module refers to: each Name, Attribute, imported name, and
    string constant that is an identifier (a name passed to getattr or
    monkeypatch)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_function_is_used_outside_the_tests():
    # a function or method that nothing but its own tests calls is a wrapper
    # to delete, not to keep; a def is not a reference to itself, and neither
    # is the package's re-export of it
    repo = SOURCE.parents[1]
    users = sorted((repo / "demos").rglob("*.py")) + sorted((repo / "benchmarks").rglob("*.py"))
    defined, used = [], set()
    for path in sorted(SOURCE.glob("*.py")) + users:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path != SOURCE / "__init__.py":
            used |= _referenced_names(tree)
        if path.parent == SOURCE:
            defined += [
                (f"{path.name}:{node.lineno}", node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    dunder = re.compile(r"__\w+__")
    assert [f"{where}: {name}" for where, name in defined if not dunder.fullmatch(name) and name not in used] == []
