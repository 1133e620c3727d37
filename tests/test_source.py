"""Checks over the package source itself."""

import ast
from pathlib import Path

import rfq


def test_no_assert_statements():
    # `python -O` strips asserts, so an invariant must raise a real error
    sources = sorted(Path(rfq.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
