"""Whether a value is an exact integer is decided in `exact_linalg` alone
(`_int`, `_ints`, `_positive`, `_rational`); every other library module
reads its numbers through those helpers instead of restating the rule.
Text is read by `textio` alone: the CLI reads its integer options through
`textio.parse_int`, never through `int`, and every option that must be at
least 1 through `cli._positive_int`, so its error names the option."""

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


def _reads_text_with_int(node) -> bool:
    """A call int(...) or an argument type=int."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "int"
    return (isinstance(node, ast.keyword) and node.arg == "type"
            and isinstance(node.value, ast.Name) and node.value.id == "int")


def test_cli_reads_integer_options_through_textio():
    path = Path(flattori.__file__).parent / "cli.py"
    found = [f"cli.py:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if _reads_text_with_int(node)]
    assert found == []


def test_the_cli_check_sees_each_int_read():
    for source in ("p.add_argument('--q', type=int)", "int(text)", "f(type=int, x=1)"):
        assert any(map(_reads_text_with_int, ast.walk(ast.parse(source)))), source
    for source in ("p.add_argument('--q', type=parse_int)", "isinstance(x, int)", "x.int(3)"):
        assert not any(map(_reads_text_with_int, ast.walk(ast.parse(source)))), source


# the CLI options that must be >= 1, in every subcommand that has them
POSITIVE_OPTIONS = {"--q", "--n", "--m", "--m-prime", "--trials"}


def _positive_options(tree) -> list:
    """(option, whether it passes type=_positive_int) for each add_argument
    call in tree that declares one of POSITIVE_OPTIONS."""
    return [(node.args[0].value, any(
                k.arg == "type" and isinstance(k.value, ast.Name)
                and k.value.id == "_positive_int" for k in node.keywords))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in POSITIVE_OPTIONS]


def test_cli_reads_options_that_must_be_positive_through_positive_int():
    path = Path(flattori.__file__).parent / "cli.py"
    found = _positive_options(ast.parse(path.read_text(), filename=str(path)))
    assert {option for option, _ in found} == POSITIVE_OPTIONS
    assert [option for option, checked in found if not checked] == []


def test_the_positive_option_check_sees_a_violation():
    for source in ("p.add_argument('--q', type=_integer, required=True)",
                   "p.add_argument('--m-prime', default=1)", "p.add_argument('--n', type=int)"):
        option = source.split("'")[1]
        assert _positive_options(ast.parse(source)) == [(option, False)], source
    assert _positive_options(ast.parse("p.add_argument('--trials', type=_positive_int)")) \
        == [("--trials", True)]
    for source in ("p.add_argument('--a', type=_integer)", "f('--q', type=_integer)"):
        assert _positive_options(ast.parse(source)) == [], source
