"""The library checks its certificates with explicit raises, which run
under `python -O`; an `assert` statement would be stripped there."""

import ast
from pathlib import Path

import flattori


def test_library_has_no_assert_statements():
    root = Path(flattori.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
