"""Classification layer for projectively flat vector bundles and flat
matrix-algebra bundles on tori.

A class is its classifying invariants: (q, c1) for a vector class and
beta in H^2(T^n, mu_q) for a matrix class.  The base dimension n, and the
matrix size q, are read off the form, so they cannot disagree with it; a
form that does not match a stated n comes only from outside the program,
and the CLI checks `--n` itself.  Two classes are isomorphic exactly when
the frozen records are equal; total spaces never appear here -- the
autofactor module holds concrete factor-of-automorphy models whose exact
clutching twist and omega are an independent route to the same
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import (
    STANDARD,
    AltFormModQ,
    AltFormZ,
    Orientation2,
    RootOfUnity,
    beta_reduce,
    fundamental_pairing,
    mu_q_image,
)
from .exact_linalg import _instance, _int, _positive


@dataclass(frozen=True, slots=True)
class VectorBundleClass:
    """Isomorphism class of a projectively flat rank-q bundle on T^n,
    determined by (q, c1); n is read off c1."""

    rank: int
    c1: AltFormZ
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", _positive(self.rank, "rank"))
        object.__setattr__(self, "n", _instance(self.c1, AltFormZ).n)


@dataclass(frozen=True, slots=True)
class MatrixBundleClass:
    """Isomorphism class of a flat q x q matrix bundle on T^n, determined by
    beta; n and the size q are read off beta."""

    beta: AltFormModQ
    n: int = field(init=False)
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _instance(self.beta, AltFormModQ).n)
        object.__setattr__(self, "size", self.beta.modulus)


def endo(e: VectorBundleClass) -> MatrixBundleClass:
    """E -> End(E) = E (x) E*: beta is c1 reduced mod the rank.  So
    End E1 = End E2 exactly when the rank q divides c1(E2) - c1(E1), that
    is when E2 = E1 (x) L for a line bundle L."""
    e = _instance(e, VectorBundleClass)
    return MatrixBundleClass(beta_reduce(e.c1, e.rank))


def X_bundle(q: int, a: int) -> VectorBundleClass:
    """The rank-q bundle on T^2 with c1(e1, e2) = -a (twist -a); the class
    refuses q < 1."""
    a = _int(a)
    return VectorBundleClass(q, AltFormZ([[0, -a], [a, 0]]))


def twist(e: VectorBundleClass, o: Orientation2 = STANDARD) -> int:
    """Winding-number invariant of a rank-q bundle on T^2: -c1[T^2]."""
    return -fundamental_pairing(_instance(e, VectorBundleClass).c1, o)


def omega(a: MatrixBundleClass, o: Orientation2 = STANDARD) -> RootOfUnity:
    """mu_q invariant of a q x q matrix bundle on T^2: inverse of beta[T^2]."""
    return mu_q_image(-fundamental_pairing(_instance(a, MatrixBundleClass).beta, o), a.size)

