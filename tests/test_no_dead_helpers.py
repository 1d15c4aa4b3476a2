"""Every name the library defines has a reader.  A private helper (a
function, method or class whose name starts with one underscore, dunders
aside) is referenced somewhere in `src/flattori` outside its own
definition.  A public module-level function or class, and a public method
of a module-level class, is referenced outside its own definition in
`src/flattori` or in the benchmark (`perfbench/*.py`).  A re-export in
`__init__.py` is an import, not a read.  Code that only tests use belongs
in `tests/`; the one public name kept without a reader is declared in
DECLARED, with the reason.  Reads are matched by name, so a public method
name that two classes define is live as soon as either is read: each such
name is pinned in SHARED_METHODS with the functions that read it."""

import ast
from pathlib import Path

import flattori

# public entry points kept without a library or benchmark reader
DECLARED = {"pullback": "pro-tori item, ROADMAP"}


def _dead_names(library, benchmark=None) -> list:
    """`file:line name` of each def or class in `library` (a dict of file
    name to source text) that is read, as a name or an attribute, nowhere
    outside its own definition: a private one in `library`, a public one in
    `library` or `benchmark` (a dict of the same kind).  Private defs are
    checked at any depth, public ones at module level and as methods of
    module-level classes; dunders are exempt, and an import is no read."""
    defs, reads = [], []
    for name, text in library.items():
        tree = ast.parse(text, filename=name)
        methods = [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    if not node.name.endswith("__"):
                        defs.append((name, node, False))
                elif node in tree.body or node in methods:
                    defs.append((name, node, True))
    defs.sort(key=lambda d: (d[0], d[1].lineno))
    for where, sources in (("library", library), ("benchmark", benchmark or {})):
        for name, text in sources.items():
            for node in ast.walk(ast.parse(text, filename=name)):
                if isinstance(node, ast.Name):
                    reads.append((where, name, node.id, node.lineno))
                elif isinstance(node, ast.Attribute):
                    reads.append((where, name, node.attr, node.lineno))
    return [f"{name}:{node.lineno} {node.name}" for name, node, public in defs
            if not any(ident == node.name and (public or where == "library") and not (
                where == "library" and file == name and node.lineno <= line <= node.end_lineno)
                for where, file, ident, line in reads)]


def _shared_methods(library, benchmark=None) -> dict:
    """Each public method name that two or more module-level classes of
    `library` define, mapped to the sorted `file function` of every
    module-level function or method, in `library` or `benchmark`, that reads
    it as an attribute.  `_dead_names` matches reads by name, so such a read
    keeps every one of those methods live."""
    owners, readers = {}, {}
    for text in library.values():
        for c in ast.parse(text).body:
            if isinstance(c, ast.ClassDef):
                for m in c.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        owners.setdefault(m.name, set()).add(c.name)
    shared = {name for name, classes in owners.items() if len(classes) > 1}
    for name, text in {**library, **(benchmark or {})}.items():
        tree = ast.parse(text, filename=name)
        scopes = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        scopes += [(f"{c.name}.{m.name}", m) for c in tree.body if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)]
        for scope, node in scopes:
            for read in ast.walk(node):
                if isinstance(read, ast.Attribute) and read.attr in shared:
                    readers.setdefault(read.attr, set()).add(f"{name} {scope}")
    return {name: sorted(readers.get(name, ())) for name in shared}


def _sources(root: Path, pattern: str) -> dict:
    return {str(path.relative_to(root)): path.read_text() for path in sorted(root.glob(pattern))}


LIBRARY = Path(flattori.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def _dead_in_repo():
    return _dead_names(_sources(LIBRARY, "**/*.py"), _sources(BENCHMARK, "*.py"))


def test_every_private_helper_has_a_library_caller():
    assert [d for d in _dead_in_repo() if d.split()[-1].startswith("_")] == []


def test_every_public_name_has_a_reader():
    # exactly the declared entries: each is still defined and still unread
    dead = [d.split()[-1] for d in _dead_in_repo() if not d.split()[-1].startswith("_")]
    assert sorted(dead) == sorted(DECLARED)


def test_the_check_sees_each_dead_helper():
    live = {"a.py": "def _used(x):\n    return x\n\n\ndef f():\n    return _used(1)\n",
            "b.py": "class K:\n    def _m(self):\n        return 1\n\n    def n(self):\n"
                    "        return self._m()\n",
            "c.py": "from a import _used, f\nfrom b import K\n\n\ndef g():\n"
                    "    return _used(2) + f() + K().n() + h()\n\n\ndef h():\n    return g()\n"}
    assert _dead_names(live) == []
    dead = {"a.py": "def _unused(x):\n    return x\n\n\ndef f():\n    return 1\n",
            "b.py": "def _rec(n):\n    return _rec(n - 1) if n else 0\n",
            "c.py": "from a import _unused\n\n\nclass _Gone:\n    pass\n",
            "d.py": "class K:\n    def _m(self):\n        return 1\n\n    def __len__(self):\n"
                    "        return 0\n"}
    assert _dead_names(dead) == ["a.py:1 _unused", "a.py:5 f", "b.py:1 _rec", "c.py:4 _Gone",
                                 "d.py:1 K", "d.py:2 _m"]
    # a public function or method with no reader is dead; only the
    # benchmark reading a public name keeps it live, and a re-export in
    # __init__.py keeps nothing live
    public = {"a.py": "def f():\n    return 1\n\n\ndef g():\n    return 2\n\n\n"
                      "class K:\n    def m(self):\n        return 3\n\n    def n(self):\n"
                      "        return 4\n\n\ndef main():\n    return K().m() + f()\n",
              "__init__.py": "from .a import f, g, K, main\n"}
    bench = {"run.py": "from flattori import main\n\nmain()\n"}
    assert _dead_names(public, bench) == ["a.py:5 g", "a.py:13 n"]
    assert _dead_names(public) == ["a.py:5 g", "a.py:13 n", "a.py:17 main"]
    # the benchmark keeps no private helper live
    assert _dead_names({"a.py": "def _h():\n    return 1\n"},
                       {"run.py": "from a import _h\n\n_h()\n"}) == ["a.py:1 _h"]


# public method names that two or more library classes define, each with
# the readers that keep it live
SHARED_METHODS = {"records": ["cli.py cmd_cocycle_check", "cli.py cmd_rep"]}


def test_shared_method_names_are_pinned_with_their_readers():
    # a read of a shared name keeps every method of that name live, so the
    # check above cannot tell which one is read: a new shared name, or a
    # reader gained or lost, fails here until it is looked at
    assert _shared_methods(_sources(LIBRARY, "**/*.py"),
                           _sources(BENCHMARK, "*.py")) == SHARED_METHODS


def test_the_shared_method_check_names_the_readers():
    lib = {"a.py": "class A:\n    def m(self):\n        return 1\n\n    def n(self):\n"
                   "        return 2\n\n\nclass B:\n    def m(self):\n        return 3\n\n"
                   "    def _p(self):\n        return self.m()\n\n\ndef f(x):\n"
                   "        return x.m() + x.n()\n"}
    bench = {"run.py": "def g(x):\n    return x.m\n"}
    assert _shared_methods(lib) == {"m": ["a.py B._p", "a.py f"]}
    assert _shared_methods(lib, bench) == {"m": ["a.py B._p", "a.py f", "run.py g"]}
