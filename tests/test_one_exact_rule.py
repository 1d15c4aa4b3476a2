"""Whether a value is an exact integer is decided in `exact_linalg` alone
(`_int`, `_ints`, `_positive`, `_rational`); every other library module
reads its numbers through those helpers instead of restating the rule."""

import ast
from pathlib import Path

import flattori


def _restates_the_rule(node) -> bool:
    """operator.index (called or passed), a test for __index__, or an
    isinstance test against bool."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__index__" or (
            node.attr == "index" and isinstance(node.value, ast.Name)
            and node.value.id == "operator")
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(a.name == "index" for a in node.names)
    if isinstance(node, ast.Constant):
        return node.value == "__index__"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)
    return False


def test_exact_number_rule_lives_in_exact_linalg_only():
    root = Path(flattori.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py")) if path.name != "exact_linalg.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if _restates_the_rule(node)]
    assert found == []


def test_the_check_sees_each_restatement():
    sources = ["map(operator.index, xs)", "operator.index(x)", "from operator import index",
               "hasattr(x, '__index__')", "x.__index__()", "isinstance(x, bool)",
               "isinstance(x, (int, bool))"]
    for source in sources:
        assert any(map(_restates_the_rule, ast.walk(ast.parse(source)))), source
    for source in ("isinstance(x, int)", "operator.mul(a, b)", "xs.index(3)"):
        assert not any(map(_restates_the_rule, ast.walk(ast.parse(source)))), source
