"""The library imports only the Python standard library and itself, as
pyproject.toml's `dependencies = []` and the README promise; NumPy and
pytest are test extras."""

import ast
import sys
from pathlib import Path

import flattori


def test_library_imports_only_the_standard_library():
    root = Path(flattori.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names | {"flattori"}]
    assert found == []
