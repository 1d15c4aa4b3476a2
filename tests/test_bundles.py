import random
from fractions import Fraction

import numpy as np
import pytest

from flattori.bundles import (
    MatrixBundleClass,
    VectorBundleClass,
    X_bundle,
    endo,
    omega,
    twist,
)
from flattori.cohomology import (
    REVERSED,
    STANDARD,
    AltFormModQ,
    AltFormZ,
    RootOfUnity,
    beta_reduce,
    mu_q_image,
)
from flattori.autofactor import check_cocycle, factor_from
from flattori.exact_linalg import SkewRatForm
from flattori.nctorus import NCTorusParams

ZERO2 = AltFormZ([[0, 0], [0, 0]])


def test_classify_trivial_line():
    e = VectorBundleClass(1, ZERO2)
    assert e.rank == 1 and e.c1 == ZERO2


def test_classes_read_n_and_size_off_their_form():
    rng = random.Random(34)
    for _ in range(100):
        n, q = rng.randint(1, 5), rng.randint(1, 7)
        c = _random_form(rng, n)
        assert VectorBundleClass(q, c).n == c.n == n
        beta = beta_reduce(c, q)
        a = MatrixBundleClass(beta)
        assert (a.n, a.size) == (beta.n, beta.modulus) == (n, q)
        assert endo(VectorBundleClass(q, c)) == a


def test_X_bundle_invariants():
    e = X_bundle(3, 5)
    assert e.rank == 3
    assert e.c1.mat[0][1] == -5
    assert twist(e) == -5
    assert X_bundle(1, 0) == VectorBundleClass(1, ZERO2)
    with pytest.raises(ValueError):
        X_bundle(0, 1)


def test_twist_examples():
    for q in (1, 2, 5):
        for a in range(-6, 7):
            assert twist(X_bundle(q, a), STANDARD) == -a
            assert twist(X_bundle(q, a), REVERSED) == a
    assert twist(X_bundle(4, 0)) == 0


def test_X1_orientation_swap():
    # X(1, a) and X(1, -a) are related by reversing the orientation
    for a in range(-5, 6):
        assert twist(X_bundle(1, a), REVERSED) == twist(X_bundle(1, -a), STANDARD)


def test_endo_and_iso_matrix():
    assert endo(X_bundle(3, 0)).beta == AltFormModQ(ZERO2.mat, 3)
    q, a = 5, 2
    b = endo(X_bundle(q, a)).beta
    assert b.mat[0][1] == (-a) % q
    # isomorphic matrix classes are equal records; a size mismatch is a
    # negative answer, not an error
    assert endo(X_bundle(4, 1)) == endo(X_bundle(4, 5))
    assert endo(X_bundle(5, 1)) != endo(X_bundle(5, 2))
    assert endo(X_bundle(2, 1)) != endo(X_bundle(3, 1))


def test_line_twist_iff_endo_iso():
    # the link between the two classifications: End E1 = End E2 exactly
    # when the rank q divides c1(E2) - c1(E1), that is when E2 = E1 (x) L
    for q in (1, 2, 3, 5):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert (endo(X_bundle(q, a)) == endo(X_bundle(q, b))) == ((b - a) % q == 0)
    rng = random.Random(27)
    for _ in range(200):
        n, q = rng.randint(1, 4), rng.randint(1, 6)
        c, d = (_random_form(rng, n) for _ in range(2))
        twist_by_line = all(x % q == 0 for row in (d.mat - c.mat).entries for x in row)
        assert (endo(VectorBundleClass(q, c)) == endo(VectorBundleClass(q, d))) == twist_by_line


def _random_form(rng, n):
    upper = {(i, j): rng.randint(-4, 4) for i in range(n) for j in range(i + 1, n)}
    return AltFormZ([[upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(n)]
                     for i in range(n)])


def test_omega_examples():
    assert omega(endo(X_bundle(4, 0))) == RootOfUnity(0)
    for q in (1, 2, 3, 5, 8):
        for a in range(-8, 9):
            assert omega(endo(X_bundle(q, a))) == mu_q_image(-a, q)
            assert omega(endo(X_bundle(q, a + q))) == omega(endo(X_bundle(q, a)))


def test_omega_orientation_inverts():
    for q in (2, 3, 5):
        for a in range(-5, 6):
            A = endo(X_bundle(q, a))
            assert omega(A, REVERSED) == omega(A, STANDARD) ** -1


def test_tw_to_omega():
    # pi_1(U(q)) -> pi_1(PU(q)) = mu_q sends the twist of E to omega(End E)
    for q in range(1, 9):
        for a in range(-8, 9):
            e = X_bundle(q, a)
            assert mu_q_image(twist(e), q) == omega(endo(e))


def test_desk_scale_bijectivity():
    for q in range(1, 9):
        betas = [endo(X_bundle(q, a)).beta for a in range(q)]
        assert len(set(betas)) == q
        pairings = sorted(b.mat[0][1] for b in betas)
        assert pairings == list(range(q))
        for i in range(q):
            for j in range(i + 1, q):
                assert MatrixBundleClass(betas[i]) != MatrixBundleClass(betas[j])


def test_flat_implies_trivial_shadow():
    # a class with vanishing c1 is the trivial class
    for q in (1, 2, 6):
        e = VectorBundleClass(q, ZERO2)
        assert e == X_bundle(q, 0)


def test_matrix_class_from_beta_directly():
    b = beta_reduce(AltFormZ([[0, 1], [-1, 0]]), 4)
    a = MatrixBundleClass(b)
    assert (a.n, a.size) == (2, 4)
    assert a == endo(X_bundle(4, -1)) and omega(a) == mu_q_image(1, 4)


def test_integer_parameters_must_be_exact_integers():
    # each of these was accepted silently or raised TypeError
    c = AltFormZ([[0, -1], [1, 0]])
    beta = AltFormModQ([[0, 1], [-1, 0]], 2)
    theta = SkewRatForm([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    for build in (lambda: VectorBundleClass(2.5, c), lambda: VectorBundleClass(2.0, c),
                  lambda: X_bundle(2.5, 1),
                  lambda: NCTorusParams(2, theta, 1.5), lambda: NCTorusParams(2.0, theta),
                  lambda: AltFormModQ([[0, 1], [-1, 0]], "2")):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError, match="not an integer index"):
        X_bundle(2, 2.5)
    # exact integers of other types are stored as ints
    e = VectorBundleClass(np.int64(3), c)
    a = MatrixBundleClass(AltFormModQ([[0, 1], [-1, 0]], np.int64(2)))
    p = NCTorusParams(np.int64(2), theta, np.int64(4))
    assert (type(e.n), type(e.rank), type(a.n), type(a.size), type(p.n), type(p.m)) == (int,) * 6
    assert AltFormModQ([[0, 1], [-1, 0]], np.int64(2)) == beta
    F = factor_from(np.int64(3), np.int64(1))
    assert (type(F.q), type(F.a)) == (int, int) and F == factor_from(3, 1)
    assert check_cocycle(F, np.int64(5)) == check_cocycle(F, 5) == []
