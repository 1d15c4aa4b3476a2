"""Every private helper of the library has a library caller: a function,
method or class whose name starts with one underscore (dunders aside) is
referenced somewhere in `src/flattori` outside its own definition.  A
helper that only tests use belongs in `tests/`."""

import ast
from pathlib import Path

import flattori


def _dead_helpers(sources) -> list:
    """`file:line name` of each private def or class in `sources` (a dict of
    file name to source text) whose name is read, as a name or an
    attribute, nowhere outside its own definition; an import is no read."""
    defs, reads = [], []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((name, node))
            elif isinstance(node, ast.Name):
                reads.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((name, node.attr, node.lineno))
    return [f"{name}:{node.lineno} {node.name}" for name, node in defs
            if not any(ident == node.name and not (
                where == name and node.lineno <= line <= node.end_lineno)
                for where, ident, line in reads)]


def test_every_private_helper_has_a_library_caller():
    root = Path(flattori.__file__).parent
    sources = {str(path.relative_to(root)): path.read_text()
               for path in sorted(root.rglob("*.py"))}
    assert _dead_helpers(sources) == []


def test_the_check_sees_each_dead_helper():
    live = {"a.py": "def _used(x):\n    return x\n\n\ndef f():\n    return _used(1)\n",
            "b.py": "class K:\n    def _m(self):\n        return 1\n\n    def n(self):\n"
                    "        return self._m()\n",
            "c.py": "from a import _used\n\n\ndef g():\n    return _used(2)\n"}
    assert _dead_helpers(live) == []
    dead = {"a.py": "def _unused(x):\n    return x\n\n\ndef f():\n    return 1\n",
            "b.py": "def _rec(n):\n    return _rec(n - 1) if n else 0\n",
            "c.py": "from a import _unused\n\n\nclass _Gone:\n    pass\n",
            "d.py": "class K:\n    def _m(self):\n        return 1\n\n    def __len__(self):\n"
                    "        return 0\n"}
    assert _dead_helpers(dead) == ["a.py:1 _unused", "b.py:1 _rec", "c.py:4 _Gone",
                                   "d.py:2 _m"]
