"""Degree-2 cohomology of the n-torus as alternating forms on Z^n.

Integer alternating 2-forms stand in for integral 2-classes, their mod-q
reductions for q-torsion classes; degree-1 classes are plain integer
vectors.  The orientation pairing with the fundamental class of the
2-torus is fixed here, in one place: c[T^2] = -c(e1, e2) for the standard
orientation.  Every twist/omega computation routes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import IntMatrix, _instance, _int, _ints, _positive, _rational


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

    def __add__(self, other):
        return AltFormZ(self.mat + other.mat)

    def __sub__(self, other):
        return AltFormZ(self.mat - other.mat)

    def __neg__(self):
        return AltFormZ(-self.mat)

    def scale(self, k: int) -> "AltFormZ":
        return AltFormZ(self.mat.scale(k))

    def value(self, u, v) -> int:
        """Evaluate the form on a pair of integer vectors of length n."""
        u, v = _ints(u, self.n), _ints(v, self.n)
        return sum(u[i] * self.mat[i][j] * v[j]
                   for i in range(self.n) for j in range(self.n))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.mat.entries for x in row)

    @classmethod
    def zero(cls, n: int) -> "AltFormZ":
        return cls(IntMatrix.zero(n, n))


@dataclass(frozen=True, slots=True)
class AltFormModQ:
    """Alternating form with values mod q; entries canonically in [0, q)."""

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
        n = red.rows
        if any((red[i][j] + red[j][i]) % modulus != 0
               for i in range(n) for j in range(n)):
            raise ValueError("matrix is not alternating mod q")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "mat", red)

    def __repr__(self):
        return f"AltFormModQ({[list(r) for r in self.mat.entries]}, mod {self.modulus})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.mat.entries for x in row)


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """Exact root of unity e(c/q) = exp(2*pi*i*c/q); phase kept in [0, 1).
    The phase is an exact rational (`exact_linalg._rational`)."""

    phase: Fraction

    def __init__(self, phase):
        object.__setattr__(self, "phase", _rational(phase) % 1)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.phase + _instance(other, RootOfUnity).phase)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.phase)

    def __pow__(self, k: int) -> "RootOfUnity":
        """The k-th power for an exact integer k."""
        return RootOfUnity(self.phase * _int(k))

    def __str__(self):
        return f"{self.phase.numerator}/{self.phase.denominator}"

    def __repr__(self):
        return f"RootOfUnity({self})"


@dataclass(frozen=True)
class Orientation2:
    """Orientation of the 2-torus; +1 agrees with the standard one."""

    sign: int

    def __post_init__(self):
        object.__setattr__(self, "sign", _int(self.sign))
        if self.sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")


STANDARD = Orientation2(1)
REVERSED = Orientation2(-1)


def wedge(u, v) -> AltFormZ:
    """Wedge of two degree-1 classes (integer vectors): mat = u v^t - v u^t."""
    u, v = _ints(u), _ints(v)
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    n = len(u)
    return AltFormZ([[u[i] * v[j] - v[i] * u[j] for j in range(n)]
                     for i in range(n)])


def fundamental_pairing(c: AltFormZ, o: Orientation2 = STANDARD) -> int:
    """Pair a 2-class on T^2 with the fundamental class: o.sign * (-c(e1,e2))."""
    if c.n != 2:
        raise ValueError("fundamental pairing needs a form on Z^2")
    return o.sign * (-c.mat[0][1])


def fundamental_pairing_modq(beta: AltFormModQ, o: Orientation2 = STANDARD) -> int:
    """Same pairing for a mod-q class, via the canonical entry lift in [0, q)."""
    if beta.n != 2:
        raise ValueError("fundamental pairing needs a form on Z^2")
    return (o.sign * (-beta.mat[0][1])) % beta.modulus


def beta_reduce(c: AltFormZ, q: int) -> AltFormModQ:
    """Coefficient reduction Z -> mu_q of a 2-class; AltFormModQ refuses q < 1."""
    return AltFormModQ(c.mat, q)


def pullback(c: AltFormZ, P: IntMatrix) -> AltFormZ:
    """Pullback along a lattice map P: Z^n -> Z^m; contravariant functorial."""
    if _instance(P, IntMatrix).rows != _instance(c, AltFormZ).n:
        raise ValueError("lattice map shape mismatch")
    return AltFormZ(P.transpose() @ c.mat @ P)


def mu_q_image(k: int, q: int) -> RootOfUnity:
    """Image of an integer under Z -> mu_q, k -> e(k/q)."""
    k, q = _int(k), _positive(q, "q")
    return RootOfUnity(Fraction(k % q, q))
