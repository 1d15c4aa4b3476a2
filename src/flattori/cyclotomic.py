"""Exact elements of the cyclotomic field Q(zeta_L) = Q[z] / Phi_L(z).

Elements are coefficient vectors over the power basis 1, z, ..., z^{phi(L)-1}
with Fraction coefficients.  This is a genuine field: formal coordinates
indexed by all L powers of z would live in the group algebra Q[z]/(z^L - 1)
instead, whose extra components inflate solution spaces.  projrep decides,
verifies and certifies its intertwiners on integer weights and phase
exponents; it needs this module only to return them as matrices of these
elements, each entry a positive integer times a root of unity.  The field
arithmetic itself (products, differences, inverses, determinants) is the
test reference in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_linalg import _int, _positive, _rational


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials, den monic; remainder must be 0."""
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for k in range(len(out) - 1, -1, -1):
        c = num[deg_d + k]
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num[:deg_d]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(L: int):
    """Coefficients of Phi_L, low degree first, monic integer.  The cache is
    typed, so 2.0 is refused even after 2 is cached."""
    L = _positive(L, "order")
    if L == 1:
        return (-1, 1)
    poly = [0] * L + [1]
    poly[0] = -1  # z^L - 1
    for d in range(1, L):
        if L % d == 0:
            poly = _poly_divmod_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(L: int):
    """z^k mod Phi_L for k = 0..L-1, as Fraction tuples of length deg."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    table = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(L):
        table.append(tuple(cur))
        # multiply by z, reduce the overflow against the monic Phi_L
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        if top:
            for i in range(deg):
                cur[i] -= top * phi[i]
    return tuple(table)


@dataclass(frozen=True, slots=True)
class CycElt:
    """Element of Q(zeta_L) over the power basis."""

    L: int
    coeffs: tuple

    def __init__(self, L, coeffs):
        L, coeffs = _int(L), tuple(map(_rational, coeffs))
        if len(coeffs) != len(cyclotomic_polynomial(L)) - 1:
            raise ValueError("coefficient vector has wrong length")
        _element(L, coeffs, self)

    @classmethod
    def zero(cls, L: int) -> "CycElt":
        L = _int(L)
        return _element(L, (Fraction(0),) * (len(cyclotomic_polynomial(L)) - 1))

    def __repr__(self):
        return f"CycElt(L={self.L}, {[str(c) for c in self.coeffs]})"


def _element(L: int, coeffs: tuple, e: CycElt | None = None) -> CycElt:
    """(L, Fraction coeffs) stored unchecked; into e when given (by __init__)."""
    e = object.__new__(CycElt) if e is None else e
    object.__setattr__(e, "L", L)
    object.__setattr__(e, "coeffs", coeffs)
    return e
