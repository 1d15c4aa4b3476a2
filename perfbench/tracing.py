"""Per-layer call tracing of flattori from outside the library.

`Tracer.install()` wraps the public functions of each traced module and the
public methods of its public classes (plus the few operators the benchmark
reports on), and rebinds every name that refers to the original in every
flattori module and class: `nctorus` imports `smith_normal_form` by name,
so patching only `exact_linalg` would let that call escape.  `uninstall()`
restores every binding.

Spans are kept as a stack of open frames and folded into per-function
totals when they close: self time is a span's duration minus the time its
child spans cover, so the self times of one request add up to the duration
of its root span.  Calls made outside a root span are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("exact_linalg", "cohomology", "bundles", "autofactor", "cyclotomic",
           "projrep", "nctorus", "textio", "cli")

# operators named in the per-layer metrics; other dunders stay unwrapped
OPERATORS = {
    "cyclotomic.CycElt.__mul__",
    "autofactor.GenPermPhaseMatrix.__matmul__",
    "autofactor.GenPermPhaseMatrix.__pow__",
    "projrep.ProjectiveRep.__init__",
}

# the largest certificate entry returned by this function is recorded too
CERTIFIED = "nctorus.normal_form"

PACKAGE = "flattori"
ROOT = "request"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.cert_bits_max = 0
        self.root_s = 0.0
        self.roots = 0
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _close(self, name: str, frame, dur: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur

    def root(self, fn, *args):
        """Run fn(*args) as a root span."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._close(ROOT, frame, dur)
            self.root_s += dur
            self.roots += 1

    def _wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        certified = name == CERTIFIED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                close(name, frame, dur)
            if certified:
                bits = max(abs(x).bit_length() for row in result.T.entries for x in row)
                self.cert_bits_max = max(self.cert_bits_max, bits)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def _targets(self, modules):
        """id(original) -> wrapper for every traced callable."""
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException) or hasattr(obj, "__members__"):
                        continue
                    for mname, raw in vars(obj).items():
                        name = f"{short}.{obj.__name__}.{mname}"
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if not inspect.isfunction(fn):
                            continue
                        if mname.startswith("_") and name not in OPERATORS:
                            continue
                        wrappers.setdefault(id(fn), self._wrap(name, fn))
                elif callable(obj):
                    wrappers.setdefault(id(obj), self._wrap(f"{short}.{attr}", obj))
        return wrappers

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = self._targets(modules)
        namespaces = [pkg] + list(modules.values())
        for mod in list(namespaces):
            namespaces += [c for c in vars(mod).values()
                           if inspect.isclass(c) and c.__module__.startswith(PACKAGE)]
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for attr, raw in list(vars(ns).items()):
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                w = wrappers.get(id(fn))
                if w is None:
                    continue
                self._saved.append((ns, attr, raw))
                setattr(ns, attr, kind(w) if kind else w)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, raw = self._saved.pop()
            setattr(ns, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------
    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, s in self.self_s.items():
            mod = name.split(".", 1)[0]
            if mod in out:
                out[mod] += s
        return out
