"""Degree-2 cohomology of the n-torus as alternating forms on Z^n.

Integer alternating 2-forms stand in for integral 2-classes and their mod-q
reductions for q-torsion classes; a lattice map pulls an integer class
back, and a value in mu_q is a root of unity with an exact rational
phase.  The pairing with the fundamental class of the 2-torus is stated
here, once, for the standard orientation: c[T^2] = -c(e1, e2).  Reversing
the orientation is the pullback along the swap e1 <-> e2, which negates
the pairing; the CLI applies that sign to the value it prints, and the
library knows no other orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import IntMatrix, _instance, _int, _positive, _rational


@dataclass(frozen=True, slots=True)
class AltFormZ:
    """Alternating integer bilinear form on Z^n (a degree-2 class)."""

    n: int
    mat: IntMatrix

    def __init__(self, mat):
        if not isinstance(mat, IntMatrix):
            mat = IntMatrix(mat)
        if not mat.is_skew():
            raise ValueError("matrix is not alternating")
        object.__setattr__(self, "n", mat.rows)
        object.__setattr__(self, "mat", mat)

    def __repr__(self):
        return f"AltFormZ({[list(r) for r in self.mat.entries]})"


@dataclass(frozen=True, slots=True)
class AltFormModQ:
    """Alternating form with values mod q, entries canonically in [0, q): the
    reduction of an integral alternating form, so a zero diagonal and
    a_ji = -a_ij (mod q), as `IntMatrix.is_skew` asks over Z."""

    n: int
    modulus: int
    mat: IntMatrix

    def __init__(self, mat, modulus: int):
        modulus = _positive(modulus, "modulus")
        if not isinstance(mat, IntMatrix):
            mat = IntMatrix(mat)
        if mat.rows != mat.cols:
            raise ValueError("square matrix expected")
        red = mat.mod(modulus)
        n, e = red.rows, red.entries
        if any(e[i][i] for i in range(n)) or any(
                e[i][j] + e[j][i] not in (0, modulus) for i in range(n) for j in range(i)):
            raise ValueError("matrix is not alternating mod q")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "mat", red)

    def __repr__(self):
        return f"AltFormModQ({[list(r) for r in self.mat.entries]}, mod {self.modulus})"


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """Exact root of unity e(c/q) = exp(2*pi*i*c/q); phase kept in [0, 1).
    The phase is an exact rational (`exact_linalg._rational`)."""

    phase: Fraction

    def __init__(self, phase):
        object.__setattr__(self, "phase", _rational(phase) % 1)

    def __pow__(self, k: int) -> "RootOfUnity":
        """The k-th power for an exact integer k."""
        return RootOfUnity(self.phase * _int(k))

    def __str__(self):
        return f"{self.phase.numerator}/{self.phase.denominator}"

    def __repr__(self):
        return f"RootOfUnity({self})"


def fundamental_pairing(c: AltFormZ | AltFormModQ) -> int:
    """Pair a 2-class on T^2 with the fundamental class: -c(e1,e2).
    A mod-q class is read by its entry in [0, q), so the value is exact mod q."""
    if _instance(c, AltFormZ, AltFormModQ).n != 2:
        raise ValueError("fundamental pairing needs a form on Z^2")
    return -c.mat[0][1]


def beta_reduce(c: AltFormZ, q: int) -> AltFormModQ:
    """Coefficient reduction Z -> mu_q of a 2-class; AltFormModQ refuses q < 1."""
    return AltFormModQ(_instance(c, AltFormZ).mat, q)


def pullback(c: AltFormZ, P: IntMatrix) -> AltFormZ:
    """Pullback along a lattice map P: Z^n -> Z^m; contravariant functorial."""
    if _instance(P, IntMatrix).rows != _instance(c, AltFormZ).n:
        raise ValueError("lattice map shape mismatch")
    return AltFormZ(P.transpose() @ c.mat @ P)


def mu_q_image(k: int, q: int) -> RootOfUnity:
    """Image of an integer under Z -> mu_q, k -> e(k/q)."""
    k, q = _int(k), _positive(q, "q")
    return RootOfUnity(Fraction(k % q, q))
