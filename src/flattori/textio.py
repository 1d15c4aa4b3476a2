"""Shared exact-rational text format.

A matrix is one JSON object with fields `n` (rows), `m` (cols) and `entries`,
an array of arrays of strings; each string is an integer or `p/q` literal.
Non-reduced fractions are accepted and silently reduced; anything else is a
parse error.  One ASCII match reads each literal as integers p and q >= 1,
and a matrix is read as the library's one format for rational matrices:
integer numerators N over the least common denominator d, in lowest terms
(`exact_linalg._lowest_terms`), which `SkewRatForm` takes as it is.  Only
integer matrices are written.  Roots of unity serialize as the string `c/q`.
"""

from __future__ import annotations

import json
import re
from math import lcm

from .exact_linalg import IntMatrix, SkewRatForm, _int_matrix, _lowest_terms

_INTEGER_RE = re.compile(r"-?\d+", re.ASCII)
_RATIONAL_RE = re.compile(f"({_INTEGER_RE.pattern})" + r"(?:/(\d+))?", re.ASCII)


class MatrixFormatError(ValueError):
    pass


def parse_int(text: str) -> int:
    """An ASCII decimal integer literal, an optional '-' and digits only."""
    if not isinstance(text, str) or not _INTEGER_RE.fullmatch(text):
        raise MatrixFormatError(f"malformed integer literal: {text!r}")
    return int(text)


def _literal(text) -> tuple:
    """(p, q), q >= 1, of an integer or p/q literal."""
    match = isinstance(text, str) and _RATIONAL_RE.fullmatch(text)
    if not match:
        raise MatrixFormatError(f"malformed rational literal: {text!r}")
    p, q = match.groups()
    q = 1 if q is None else int(q)
    if not q:
        raise MatrixFormatError(f"zero denominator in literal: {text!r}")
    return int(p), q


def parse_matrix(obj) -> tuple:
    """(N, d): integer numerators N over the least common denominator d."""
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix object expected")
    try:
        rows, cols, entries = obj["n"], obj["m"], obj["entries"]
    except KeyError as exc:
        raise MatrixFormatError(f"matrix object needs n, m, entries: {exc}") from exc
    if any(type(d) is not int for d in (rows, cols)):
        raise MatrixFormatError(f"n and m must be JSON integers, got {rows!r} and {cols!r}")
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in entries)):
        raise MatrixFormatError("entries shape does not match n x m")
    if rows < 1 or cols < 1:
        raise MatrixFormatError("matrix dimensions must be positive")
    pairs = [[_literal(x) for x in row] for row in entries]
    d = lcm(*(q for row in pairs for _, q in row))
    return _lowest_terms(_int_matrix([[p * (d // q) for p, q in row] for row in pairs]), d)


def load_matrix(source: str) -> tuple:
    """Parse (N, d) from inline JSON (starts with '{') or from a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from exc
    return parse_matrix(obj)


def load_skew(source: str) -> SkewRatForm:
    N, d = load_matrix(source)
    try:
        return SkewRatForm(N, d)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc


def dump_matrix(m: IntMatrix) -> dict:
    return {
        "n": m.rows,
        "m": m.cols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }


def dump_vector_class(e) -> dict:
    return {"kind": "vector", "n": e.n, "q": e.rank, "form": dump_matrix(e.c1.mat)}


def dump_matrix_class(a) -> dict:
    return {"kind": "matrix", "n": a.n, "q": a.size,
            "form": {**dump_matrix(a.beta.mat), "modulus": a.beta.modulus}}
