"""Checks on the package source itself."""

import ast
from pathlib import Path

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
    # costs.positive_param and costs.moment_order_param own the positive and
    # (1, 2] rules; a hand-written copy elsewhere would drift from them
    phrases = ("must be positive", "must be non-negative", "(1, 2]")
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "costs.py"
        for line, text in _raise_texts(path)
        if any(phrase in text for phrase in phrases)
    ]
    assert found == []
