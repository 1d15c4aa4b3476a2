"""Exact arithmetic in the cyclotomic field Q(zeta_L) = Q[z] / Phi_L(z).

Elements are coefficient vectors over the power basis 1, z, ..., z^{phi(L)-1}
with Fraction coefficients.  This is a genuine field: formal coordinates
indexed by all L powers of z would live in the group algebra Q[z]/(z^L - 1)
instead, whose extra components inflate solution spaces.  projrep solves and
verifies its intertwiners on integer phase exponents; it needs this field
only to return them as matrices of these elements and to test a support that
is not monomial for invertibility (subtraction, product and inverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int):
    """Coefficients of Phi_L, low degree first, monic integer."""
    if L < 1:
        raise ValueError("order must be positive")
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
        object.__setattr__(self, "L", int(L))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))
        if len(self.coeffs) != len(cyclotomic_polynomial(self.L)) - 1:
            raise ValueError("coefficient vector has wrong length")

    @classmethod
    def zero(cls, L: int) -> "CycElt":
        return _constant(L, 0)

    @classmethod
    def one(cls, L: int) -> "CycElt":
        return _constant(L, 1)

    @classmethod
    def from_phase(cls, phase: Fraction, L: int) -> "CycElt":
        """The root of unity e(phase) as an element; phase * L must be integral."""
        k = Fraction(phase) * L
        if k.denominator != 1:
            raise ValueError(f"e({phase}) does not lie in Q(zeta_{L})")
        return cls(L, _power_table(L)[int(k) % L])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __sub__(self, other):
        return CycElt(self.L, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        phi = cyclotomic_polynomial(self.L)
        deg = len(phi) - 1
        prod = [Fraction(0)] * (2 * deg - 1) if deg > 0 else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # reduce mod the monic Phi_L
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if c:
                for i in range(deg + 1):
                    prod[k - deg + i] -= c * phi[i]
        return CycElt(self.L, prod[:deg])

    def inverse(self) -> "CycElt":
        """Extended Euclid against Phi_L (irreducible, so gcd is a constant)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")

        def trim(p):
            p = list(p)
            while p and p[-1] == 0:
                p.pop()
            return p

        def polydiv(num, den):
            num = list(num)
            q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
            for k in range(len(q) - 1, -1, -1):
                c = num[len(den) - 1 + k] / den[-1]
                q[k] = c
                for i, d in enumerate(den):
                    num[k + i] -= c * d
            return q, trim(num)

        phi = [Fraction(c) for c in cyclotomic_polynomial(self.L)]
        deg = len(phi) - 1
        # invariant: s_k * self = r_k  (mod Phi_L)
        r0, r1 = phi, trim(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r2 = polydiv(r0, r1)
            s2 = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s2[i + j] -= qc * sc
            r0, r1 = r1, r2
            s0, s1 = s1, trim(s2) or [Fraction(0)]
        g = r1[0]
        inv = [(s1[i] / g if i < len(s1) else Fraction(0)) for i in range(deg)]
        out = CycElt(self.L, inv)
        if out * self != CycElt.one(self.L):
            raise AssertionError("inverse failed verification")
        return out

    def __repr__(self):
        return f"CycElt(L={self.L}, {[str(c) for c in self.coeffs]})"


@lru_cache(maxsize=None)
def _constant(L: int, c: int) -> CycElt:
    """The rational constant c of Q(zeta_L); elements are immutable, so one
    instance per (L, c) is shared by every caller."""
    deg = len(cyclotomic_polynomial(L)) - 1
    return CycElt(L, [c] + [0] * (deg - 1))
