"""Source-level rules for the package."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xorsat_reduce"


def package_sources() -> list[Path]:
    sources = sorted(PACKAGE.glob("*.py"))
    if not sources:
        raise AssertionError(f"no sources found under {PACKAGE}")
    return sources


def test_no_assert_statements():
    """Correctness checks raise explicitly: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_recursion_limit_changes():
    """Deep inputs are handled by iteration, not by raising the interpreter's recursion limit."""
    found = [
        f"{path.name}:{lineno}"
        for path in package_sources()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "setrecursionlimit" in line
    ]
    assert found == []
