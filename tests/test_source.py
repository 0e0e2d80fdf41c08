"""Source-level rules for the package."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xorsat_reduce"


def test_no_assert_statements():
    """Correctness checks raise explicitly: `python -O` strips assert statements."""
    sources = sorted(PACKAGE.glob("*.py"))
    if not sources:
        raise AssertionError(f"no sources found under {PACKAGE}")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
