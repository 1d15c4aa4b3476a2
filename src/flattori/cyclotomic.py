"""Exact elements of the cyclotomic field Q(zeta_L) = Q[z] / Phi_L(z).

Elements are coefficient vectors over the power basis 1, z, ..., z^{phi(L)-1}
with Fraction coefficients.  This is a genuine field: formal coordinates
indexed by all L powers of z would live in the group algebra Q[z]/(z^L - 1)
instead, whose extra components inflate solution spaces.  projrep decides,
verifies and certifies its intertwiners on integer weights and phase
exponents; it needs this module only to return them as matrices of these
elements, each entry a positive integer times a root of unity z^k, which
`_zeta_power` reduces by Phi_L when it is written, keeping no table.  The field
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


def _zeta_power(L: int, k: int) -> list:
    """z^k mod Phi_L for 0 <= k < L as deg Phi_L integer coefficients, by
    long division of x^k by the monic Phi_L: only x^deg .. x^k are reduced,
    so an exponent below deg Phi_L costs one list."""
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    r = [0] * max(k + 1, deg)
    r[k] = 1
    for top in range(k, deg - 1, -1):
        c = r[top]
        if c:
            for i in range(deg):
                r[top - deg + i] -= c * phi[i]
    return r[:deg]


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
