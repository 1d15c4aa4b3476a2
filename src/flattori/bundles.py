"""Classification layer for projectively flat vector bundles and flat
matrix-algebra bundles on tori.

Classes are represented purely by their classifying invariants (base
dimension, rank/size, and the degree-2 class), so two classes are
isomorphic exactly when the frozen records are equal; total spaces never
appear here -- the autofactor module holds concrete factor-of-automorphy
models whose exact clutching twist and omega are an independent route to
the same invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    determined by (n, q, c1)."""

    n: int
    rank: int
    c1: AltFormZ

    def __post_init__(self):
        object.__setattr__(self, "n", _int(self.n))
        object.__setattr__(self, "rank", _positive(self.rank, "rank"))
        if _instance(self.c1, AltFormZ).n != self.n:
            raise ValueError("first Chern class lives on the wrong torus")


@dataclass(frozen=True, slots=True)
class MatrixBundleClass:
    """Isomorphism class of a flat q x q matrix bundle on T^n,
    determined by (n, q, beta)."""

    n: int
    size: int
    beta: AltFormModQ

    def __post_init__(self):
        object.__setattr__(self, "n", _int(self.n))
        object.__setattr__(self, "size", _positive(self.size, "size"))
        if _instance(self.beta, AltFormModQ).modulus != self.size:
            raise ValueError("beta modulus must equal the matrix size")
        if self.beta.n != self.n:
            raise ValueError("beta lives on the wrong torus")


def classify_projflat(n: int, q: int, c: AltFormZ) -> VectorBundleClass:
    """The projectively flat class with invariants (n, q, c): the record
    that classifies such a bundle when one exists.  It checks the shape of
    (n, q, c) only and does not decide whether a bundle realizes c."""
    return VectorBundleClass(n, q, c)


def endo(e: VectorBundleClass) -> MatrixBundleClass:
    """E -> End(E) = E (x) E*: beta is c1 reduced mod the rank.  So
    End E1 = End E2 exactly when the rank q divides c1(E2) - c1(E1), that
    is when E2 = E1 (x) L for a line bundle L."""
    e = _instance(e, VectorBundleClass)
    return MatrixBundleClass(e.n, e.rank, beta_reduce(e.c1, e.rank))


def X_bundle(q: int, a: int) -> VectorBundleClass:
    """The rank-q bundle on T^2 with c1(e1, e2) = -a (twist -a); the class
    refuses q < 1."""
    a = _int(a)
    return VectorBundleClass(2, q, AltFormZ([[0, -a], [a, 0]]))


def twist(e: VectorBundleClass, o: Orientation2 = STANDARD) -> int:
    """Winding-number invariant of a rank-q bundle on T^2: -c1[T^2]."""
    return -fundamental_pairing(_instance(e, VectorBundleClass).c1, o)


def omega(a: MatrixBundleClass, o: Orientation2 = STANDARD) -> RootOfUnity:
    """mu_q invariant of a q x q matrix bundle on T^2: inverse of beta[T^2]."""
    return mu_q_image(-fundamental_pairing(_instance(a, MatrixBundleClass).beta, o), a.size)

