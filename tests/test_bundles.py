from fractions import Fraction

import numpy as np
import pytest

from flattori.bundles import (
    MatrixBundleClass,
    VectorBundleClass,
    X_bundle,
    classify_projflat,
    direct_sum_power,
    endo,
    iso_matrix,
    iso_vector,
    line_twist_exists,
    omega,
    tensor_line,
    tw_to_omega,
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
    wedge,
)
from flattori.autofactor import check_cocycle, factor_from
from flattori.exact_linalg import SkewRatForm
from flattori.nctorus import NCTorusParams


def test_classify_trivial_line():
    e = classify_projflat(2, 1, AltFormZ.zero(2))
    assert e.rank == 1 and e.c1.is_zero()


def test_classify_shape_mismatch():
    with pytest.raises(ValueError):
        classify_projflat(3, 2, AltFormZ.zero(2))


def test_X_bundle_invariants():
    e = X_bundle(3, 5)
    assert e.rank == 3
    assert e.c1.mat[0][1] == -5
    assert twist(e) == -5
    assert X_bundle(1, 0) == classify_projflat(2, 1, AltFormZ.zero(2))
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


def test_iso_vector():
    assert iso_vector(X_bundle(3, 1), X_bundle(3, 1))
    assert not iso_vector(X_bundle(3, 1), X_bundle(3, 2))
    with pytest.raises(ValueError):
        iso_vector(X_bundle(3, 1), X_bundle(4, 1))


def test_endo_and_iso_matrix():
    assert endo(X_bundle(3, 0)).beta.is_zero()
    q, a = 5, 2
    b = endo(X_bundle(q, a)).beta
    assert b.mat[0][1] == (-a) % q
    assert iso_matrix(endo(X_bundle(4, 1)), endo(X_bundle(4, 5)))
    assert not iso_matrix(endo(X_bundle(5, 1)), endo(X_bundle(5, 2)))
    # size mismatch is a negative answer, not an error
    assert not iso_matrix(endo(X_bundle(2, 1)), endo(X_bundle(3, 1)))


def test_tensor_line():
    e = X_bundle(3, 1)
    assert tensor_line(e, AltFormZ.zero(2)) == e
    one = wedge((1, 0), (0, 1))
    assert tensor_line(e, one).c1.mat[0][1] == -1 + 3
    line = X_bundle(1, 2)
    assert tensor_line(line, one).c1 == line.c1 + one
    assert endo(tensor_line(e, one)) == endo(e)


def test_line_twist_exists():
    e = X_bundle(3, 1)
    assert line_twist_exists(e, e) == AltFormZ.zero(2)
    got = line_twist_exists(e, X_bundle(3, 4))
    assert got is not None and got.mat[0][1] == -1
    assert tensor_line(e, got) == X_bundle(3, 4)
    assert line_twist_exists(e, X_bundle(3, 2)) is None
    with pytest.raises(ValueError):
        line_twist_exists(e, X_bundle(4, 1))


def test_line_twist_iff_endo_iso():
    for q in (1, 2, 3, 5):
        for a in range(-6, 7):
            for b in range(-6, 7):
                present = line_twist_exists(X_bundle(q, a), X_bundle(q, b)) is not None
                same_endo = iso_matrix(endo(X_bundle(q, a)), endo(X_bundle(q, b)))
                assert present == same_endo


def test_direct_sum_power():
    e = X_bundle(3, 2)
    assert direct_sum_power(e, 1) == e
    s = direct_sum_power(e, 4)
    assert s.rank == 12 and s.c1 == e.c1.scale(4)
    t = direct_sum_power(X_bundle(5, 0), 3)
    assert t.c1.is_zero() and t.rank == 15
    with pytest.raises(ValueError):
        direct_sum_power(e, 0)
    # divisibility transfer: mq | m*Delta iff q | Delta
    for m in (1, 2, 5):
        for a, b in [(1, 4), (1, 2), (2, 7)]:
            lhs = line_twist_exists(direct_sum_power(X_bundle(3, a), m),
                                    direct_sum_power(X_bundle(3, b), m)) is not None
            rhs = line_twist_exists(X_bundle(3, a), X_bundle(3, b)) is not None
            assert lhs == rhs


def test_omega_examples():
    assert omega(endo(X_bundle(4, 0))) == RootOfUnity.one()
    for q in (1, 2, 3, 5, 8):
        for a in range(-8, 9):
            assert omega(endo(X_bundle(q, a))) == mu_q_image(-a, q)
            assert omega(endo(X_bundle(q, a + q))) == omega(endo(X_bundle(q, a)))


def test_omega_orientation_inverts():
    for q in (2, 3, 5):
        for a in range(-5, 6):
            A = endo(X_bundle(q, a))
            assert omega(A, REVERSED) == omega(A, STANDARD).inverse()


def test_tw_to_omega():
    assert tw_to_omega(0, 7) == RootOfUnity.one()
    assert tw_to_omega(-3, 7) == mu_q_image(-3, 7)
    for q in range(1, 9):
        for a in range(-8, 9):
            e = X_bundle(q, a)
            assert tw_to_omega(twist(e), q) == omega(endo(e))


def test_desk_scale_bijectivity():
    for q in range(1, 9):
        betas = [endo(X_bundle(q, a)).beta for a in range(q)]
        assert len(set(betas)) == q
        pairings = sorted(b.mat[0][1] for b in betas)
        assert pairings == list(range(q))
        for i in range(q):
            for j in range(i + 1, q):
                assert not iso_matrix(MatrixBundleClass(2, q, betas[i]),
                                      MatrixBundleClass(2, q, betas[j]))


def test_flat_implies_trivial_shadow():
    # a class with vanishing c1 is the trivial class
    for q in (1, 2, 6):
        e = classify_projflat(2, q, AltFormZ.zero(2))
        assert iso_vector(e, X_bundle(q, 0))


def test_matrix_class_from_beta_directly():
    b = beta_reduce(wedge((1, 0), (0, 1)), 4)
    a = MatrixBundleClass(2, 4, b)
    assert a.size == 4
    with pytest.raises(ValueError):
        MatrixBundleClass(2, 5, b)


def test_integer_parameters_must_be_exact_integers():
    # each of these was accepted silently or raised TypeError
    c = AltFormZ([[0, -1], [1, 0]])
    beta = AltFormModQ([[0, 1], [-1, 0]], 2)
    theta = SkewRatForm([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    for build in (lambda: VectorBundleClass(2, 2.5, c), lambda: VectorBundleClass(2.0, 2, c),
                  lambda: classify_projflat(2, 2.0, c), lambda: X_bundle(2.5, 1),
                  lambda: MatrixBundleClass(2, 2.0, beta), lambda: MatrixBundleClass("2", 2, beta),
                  lambda: NCTorusParams(2, theta, 1.5), lambda: NCTorusParams(2.0, theta),
                  lambda: AltFormModQ([[0, 1], [-1, 0]], "2"),
                  lambda: direct_sum_power(X_bundle(2, 1), "2")):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError, match="not an integer index"):
        direct_sum_power(X_bundle(2, 1), 2.5)
    # exact integers of other types are stored as ints
    e = VectorBundleClass(np.int64(2), np.int64(3), c)
    a = MatrixBundleClass(np.int64(2), np.int64(2), beta)
    p = NCTorusParams(np.int64(2), theta, np.int64(4))
    assert (type(e.n), type(e.rank), type(a.n), type(a.size), type(p.n), type(p.m)) == (int,) * 6
    assert AltFormModQ([[0, 1], [-1, 0]], np.int64(2)) == beta
    assert direct_sum_power(X_bundle(2, 1), np.int64(3)) == direct_sum_power(X_bundle(2, 1), 3)
    F = factor_from(np.int64(3), np.int64(1))
    assert (type(F.q), type(F.a)) == (int, int) and F == factor_from(3, 1)
    assert check_cocycle(F, np.int64(5)) == check_cocycle(F, 5) == []
