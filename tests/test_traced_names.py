"""The benchmark's tracer patches ldplab functions by name; every name must exist.

``benchmarks/traced_cli.install`` is run against a recorder that returns
each function unchanged, so nothing in ldplab is altered.  A ``full`` target
that no longer exists raises on lookup; a ``leaf`` target that no class
defines would be skipped silently, so each leaf name must reach the recorder.
"""

import ast
import importlib
import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
TRACED_CLI = os.path.join(BENCHMARKS, "traced_cli.py")


class IdentityRecorder:
    def __init__(self):
        self.full_names, self.leaf_names = [], []

    def full(self, name, fn, **kw):
        self.full_names.append(name)
        return fn

    def leaf(self, name, fn, **kw):
        self.leaf_names.append(name)
        return fn


def _install_calls(helper: str) -> list[str]:
    """The span names install() passes to its ``full`` or ``leaf`` helper."""
    with open(TRACED_CLI, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    install = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    names = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == helper:
            name = node.args[3 if helper == "leaf" else 2]
            names.append(name.value if isinstance(name, ast.Constant) else ast.unparse(name))
    return names


@pytest.fixture
def traced_cli(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    for name in ("traced_cli", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import ldplab.cli  # noqa: F401  -- install() patches the modules the CLI imports

    return importlib.import_module("traced_cli")


def test_every_traced_name_resolves(traced_cli):
    full, leaf = _install_calls("full"), _install_calls("leaf")
    assert len(full) >= 10 and len(leaf) >= 4
    rec = IdentityRecorder()
    traced_cli.install(rec)  # a full target that is gone raises AttributeError here
    assert len(rec.full_names) == len(full)
    missing = sorted(set(leaf) - set(rec.leaf_names))
    assert not missing, f"traced leaf methods defined on no class: {missing}"
