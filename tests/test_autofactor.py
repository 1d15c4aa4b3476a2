import random
from fractions import Fraction

import numpy as np
import oracles
import pytest

from flattori.autofactor import (
    AffinePhase,
    FactorOfAutomorphy,
    GenPermPhaseMatrix,
    ScalarFactor,
    UnwrapError,
    check_cocycle,
    clutching_omega,
    clutching_twist,
    default_samples,
    det_cocycle,
    factor_from,
    loop_matrices,
    mumford_c1,
    rieffel_N,
    winding_number,
)
from flattori.cohomology import mu_q_image
from flattori.projrep import clock_shift


def test_affine_phase_mod1_and_ops():
    p = AffinePhase((Fraction(1, 2), 0), Fraction(7, 3))
    assert p.const == Fraction(1, 3)
    q = AffinePhase((Fraction(1, 2), 0), Fraction(2, 3))
    assert (p + q).const == 0
    assert (-p).const == Fraction(2, 3)
    assert p.translate((2, 5)).const == (Fraction(1, 3) + 1) % 1
    assert p.translate((1, 0)) == AffinePhase((Fraction(1, 2), 0), Fraction(5, 6))


def test_affine_phase_agrees_with_fraction_reference():
    # integer numerators over one denominator against the Fraction phases
    # they replaced, on mixed denominators
    rng = random.Random(909)
    dens = (1, 2, 3, 4, 6, 12, 5)

    def rand_frac():
        return Fraction(rng.randint(-30, 30), rng.choice(dens))

    for _ in range(400):
        dim = rng.randint(0, 3)
        raw = [([rand_frac() for _ in range(dim)], rand_frac()) for _ in range(2)]
        (p, q), (rp, rq) = ([AffinePhase(*r) for r in raw],
                            [oracles.FractionPhase(*r) for r in raw])
        gamma = tuple(rng.randint(-7, 7) for _ in range(dim))
        rgamma = tuple(rand_frac() for _ in range(dim))
        for got, want in ((p, rp), (p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
                          (p.translate(gamma), rp.translate(gamma)),
                          (p.translate(rgamma), rp.translate(rgamma))):
            assert (got.linear, got.const) == (want.linear, want.const)
            assert got == AffinePhase(want.linear, want.const)
            assert hash(got) == hash(AffinePhase(want.linear, want.const))
        assert (p == q) == (rp == rq)
        size = rng.randint(1, 4)
        perm = list(range(size))
        rng.shuffle(perm)
        cols = [(tuple(rand_frac() for _ in range(dim)), rand_frac()) for _ in range(size)]
        det = GenPermPhaseMatrix(perm, [AffinePhase(*c) for c in cols]).det()
        want = oracles.fraction_det(perm, [oracles.FractionPhase(*c) for c in cols])
        assert (det.linear, det.const) == (want.linear, want.const)
    # sums that must reduce to lowest terms
    half = AffinePhase((Fraction(1, 2),), Fraction(1, 2))
    assert half + half == AffinePhase((1,), 0)
    assert hash(half + half) == hash(AffinePhase((1,), 0))
    assert (half + half).den == 1
    third = AffinePhase((Fraction(1, 3), Fraction(2, 3)), Fraction(2, 3))
    assert third + third + third == AffinePhase((1, 2), 0)
    assert len({third + third + third, AffinePhase((1, 2), 0)}) == 1


def test_affine_phase_rejects_inexact_coefficients():
    for linear, const in (((1,), 0.1), ((0.5,), 0), ((1, 2), 0.0), ((), 1e-3),
                          ((1,), "1/2")):
        with pytest.raises(ValueError):
            AffinePhase(linear, const)
    p = AffinePhase((1, Fraction(1, 2)), 0)
    for gamma in ((0.5, 0), (0, 1.0)):
        with pytest.raises(ValueError):
            p.translate(gamma)
    assert p.translate((True, Fraction(2))) == AffinePhase((1, Fraction(1, 2)), 0)


def test_affine_phase_repr_pinned():
    cases = [
        (AffinePhase((Fraction(1, 2), Fraction(-2, 3)), Fraction(5, 4)),
         "e(1/2*x0 + -2/3*x1 + 1/4)"),
        (AffinePhase((), Fraction(7, 6)), "e( + 1/6)"),
        (AffinePhase((0, 3), 0), "e(3*x1 + 0)"),
        (AffinePhase((Fraction(-3, 4), 0), Fraction(-1, 6)), "e(-3/4*x0 + 5/6)"),
        (AffinePhase((Fraction(1, 2),) * 2, Fraction(1, 2))
         + AffinePhase((Fraction(1, 2),) * 2, Fraction(1, 2)), "e(1*x0 + 1*x1 + 0)"),
    ]
    for phase, text in cases:
        assert repr(phase) == text


def test_gen_perm_matrix_rejects_size_zero():
    with pytest.raises(ValueError):
        GenPermPhaseMatrix([], [])
    with pytest.raises(ValueError):
        oracles.identity_matrix(0)


def test_affine_phase_sign_characters():
    # e(k/2) = (-1)^k
    minus = AffinePhase((), Fraction(1, 2))
    assert abs(oracles.phase_complex(minus, ()) - (-1)) < 1e-12
    assert (minus + minus).const == 0


def test_gen_perm_matrix_pow_matches_repeated_product():
    for q, p in ((5, 2), (6, 1), (12, 7)):
        for g in clock_shift(q, p):
            ident = oracles.identity_matrix(q, g.dim)
            for v in range(-9, 10):
                base = g if v >= 0 else g.inverse()
                want = ident
                for _ in range(abs(v)):
                    want = want @ base
                assert oracles.matrix_power(g, v) == want


def test_gen_perm_matrix_algebra():
    rng = random.Random(2)

    def rand_mat(q):
        perm = list(range(q))
        rng.shuffle(perm)
        phases = [AffinePhase((rng.randint(-3, 3), rng.randint(-3, 3)),
                              Fraction(rng.randint(0, 11), 12)) for _ in range(q)]
        return GenPermPhaseMatrix(perm, phases)

    for _ in range(50):
        q = rng.randint(1, 6)
        A, B, C = rand_mat(q), rand_mat(q), rand_mat(q)
        assert (A @ B) @ C == A @ (B @ C)
        assert A @ A.inverse() == oracles.identity_matrix(q, 2)
        assert A.inverse() @ A == oracles.identity_matrix(q, 2)
        g = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert (A @ B).translate(g) == A.translate(g) @ B.translate(g)
        # numerical consistency of the product
        x = (0.3, 0.7)
        assert np.allclose(oracles.matrix_complex(A @ B, x),
                           oracles.matrix_complex(A, x) @ oracles.matrix_complex(B, x))
        # determinant is multiplicative
        assert (A @ B).det() == A.det() + B.det()


def test_rieffel_N_shape():
    n1 = rieffel_N(1, 3)
    assert n1.size == 1 and n1.phases[0] == AffinePhase((-3, 0), 0)
    n2 = rieffel_N(2, 0)
    assert n2.perm == (1, 0)
    assert all(p == oracles.zero_phase(2) for p in n2.phases)
    with pytest.raises(ValueError):
        rieffel_N(0, 1)
    with pytest.raises(ValueError):
        factor_from(0, 1)


def test_rieffel_N_det():
    for q in range(1, 7):
        for a in (-2, 0, 3):
            d = rieffel_N(q, a).det()
            assert d.linear == (Fraction(-a), Fraction(0))
            assert d.const == Fraction(q - 1, 2) % 1


def test_factor_values():
    F = factor_from(3, 2)
    assert F.value((1, 0)) == oracles.identity_matrix(3, 2)
    assert F.value((0, 1)) == rieffel_N(3, 2)
    N = rieffel_N(3, 2)
    assert F.value((0, 2)) == N @ N
    assert F.value((5, -1)) == N.inverse()


def test_factor_value_closed_form_matches_power():
    # N built literally (superdiagonal ones, e(-a s) bottom-left), then
    # N^v by square-and-multiply, against the closed form of value
    for q in range(1, 9):
        for a in range(-8, 9):
            literal = GenPermPhaseMatrix(
                [q - 1] + list(range(q - 1)),
                [AffinePhase((-a, 0), 0)] + [oracles.zero_phase(2)] * (q - 1))
            assert rieffel_N(q, a) == literal
            F = FactorOfAutomorphy(q, a)
            for v in range(-25, 26):
                assert F.value((v % 3 - 1, v)) == oracles.matrix_power(literal, v), (q, a, v)


def test_check_cocycle_clean():
    for q in (1, 2, 3, 5):
        for a in (-4, 0, 3):
            assert check_cocycle(factor_from(q, a), 100, seed=q * 100 + a) == []


class _Corrupted:
    """Negative control: a deliberately broken phase on one generator."""

    def __init__(self, q, a):
        self.inner = factor_from(q, a)

    def value(self, gamma):
        v = self.inner.value(gamma)
        if gamma[1] % 2 == 1:
            return v.scalar_mul(AffinePhase((Fraction(1, 2), 0), 0))
        return v


def test_check_cocycle_negative_control():
    bad = _Corrupted(3, 1)
    assert check_cocycle(bad, 200, seed=5) != []


def test_det_cocycle_matches_entrywise_det():
    rng = random.Random(8)
    for q in (1, 2, 3, 4, 7):
        for a in (-3, 0, 2):
            F = factor_from(q, a)
            sf = det_cocycle(F)
            for _ in range(25):
                g = (rng.randint(-6, 6), rng.randint(-6, 6))
                assert sf.value(g) == F.value(g).det()


def test_det_cocycle_values():
    sf = det_cocycle(factor_from(2, 1))
    # gamma = (0,1): -e(-s), i.e. linear (-1, 0) with constant 1/2
    v = sf.value((0, 1))
    assert v.linear == (Fraction(-1), Fraction(0))
    assert v.const == Fraction(1, 2)
    assert sf.value((1, 0)) == oracles.zero_phase(2)
    # odd q: trivial sign
    sf3 = det_cocycle(factor_from(3, 1))
    assert sf3.value((0, 1)).const == 0


def test_scalar_value_closed_form_matches_loop():
    rng = random.Random(37)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    for trial in range(120):
        n = 1 + trial % 3
        # coherent: l_i[j] - l_j[i] is an integer
        sym = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rational()
        xcoeff = [[sym[i][j] + rng.randint(-3, 3) for j in range(n)] for i in range(n)]
        f = ScalarFactor(xcoeff, [rational() for _ in range(n)])
        for _ in range(5):
            gamma = tuple(rng.randint(-50, 50) for _ in range(n))
            assert f.value(gamma) == oracles.scalar_value_loop(f, gamma), (xcoeff, gamma)
    f = det_cocycle(factor_from(3, 2))
    assert f.value((10000, 10000)) == oracles.scalar_value_loop(f, (10000, 10000))


def test_mumford_c1():
    for q in (1, 2, 3, 5, 8):
        for a in range(-6, 7):
            form = mumford_c1(det_cocycle(factor_from(q, a)))
            assert form.mat[0][1] == -a
    const = ScalarFactor(((0, 0), (0, 0)), (Fraction(1, 2), Fraction(1, 3)))
    assert mumford_c1(const).is_zero()


def test_mumford_rejects_non_integral():
    # non-integral antisymmetrization cannot arise from a genuine factor;
    # the constructor already refuses the generator data
    with pytest.raises(ValueError):
        ScalarFactor(((0, Fraction(1, 2)), (0, 0)), (0, 0))


def test_scalar_factor_rejects_incoherent():
    with pytest.raises(ValueError):
        ScalarFactor(((0, Fraction(1, 3)), (0, 0)), (0, 0))


def test_winding_number_basic():
    t = np.linspace(0.0, 1.0, 257)
    assert winding_number(np.exp(2j * np.pi * t)) == 1
    assert winding_number(np.ones(50)) == 0
    assert winding_number(np.exp(-2j * np.pi * 3 * t)) == -3


def test_winding_number_undersampled():
    t = np.linspace(0.0, 1.0, 9)
    with pytest.raises(UnwrapError):
        winding_number(np.exp(2j * np.pi * 5 * t))


def test_clutching_twist():
    for q in (1, 2, 3, 5):
        for a in range(-6, 7):
            assert clutching_twist(factor_from(q, a)) == -a


def test_clutching_twist_insufficient_samples():
    with pytest.raises(ValueError):
        clutching_twist(factor_from(3, 5), samples=10)


def test_clutching_omega():
    for q in (1, 2, 3, 5):
        for a in range(-6, 7):
            got = clutching_omega(factor_from(q, a))
            assert got == mu_q_image(-a, q)
            assert clutching_omega(factor_from(q, a + q)) == got


def test_clutching_omega_matches_loop_reference():
    for q in range(1, 9):
        for a in range(-8, 9):
            F = factor_from(q, a)
            least = 4 * (1 + abs(a) * q)
            with pytest.raises(ValueError):
                clutching_omega(F, least - 1)
            for samples in (least, default_samples(q, a)):
                assert (clutching_omega(F, samples)
                        == oracles.clutching_omega_loop(F, samples)), (q, a, samples)


def test_loop_matrices_match_symbolic():
    F = factor_from(4, 3)
    mats = loop_matrices(F, 32)
    sym = F.value((0, 1))
    for k in (0, 7, 32):
        assert np.allclose(mats[k], oracles.matrix_complex(sym, (k / 32, 0.0)))


def test_clutching_matches_exact_invariants_full_grid():
    # numerical constructions and exact cohomological formulas coincide
    from flattori.bundles import X_bundle, endo, omega, twist

    for q in range(1, 7):
        for a in range(-6, 7):
            F = factor_from(q, a)
            assert clutching_twist(F) == twist(X_bundle(q, a))
            assert clutching_omega(F) == omega(endo(X_bundle(q, a)))


def test_factor_records():
    F = factor_from(2, 1)
    recs = F.records()
    assert recs[0] == ((1, 0), [0, 1], [["0", "0", "0"], ["0", "0", "0"]])
    assert recs[1] == ((0, 1), [1, 0], [["-1", "0", "0"], ["0", "0", "0"]])
    gammas = ((1, 0), (0, 1), (2, -3))
    assert factor_from(3, -2).records(gammas) == [
        ((1, 0), [0, 1, 2], [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        ((0, 1), [2, 0, 1], [["2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        ((2, -3), [0, 1, 2], [["-2", "0", "0"], ["-2", "0", "0"], ["-2", "0", "0"]])]
    assert factor_from(4, 3).records(gammas)[2] == (
        (2, -3), [3, 0, 1, 2],
        [["0", "0", "0"], ["3", "0", "0"], ["3", "0", "0"], ["3", "0", "0"]])


def test_kron_and_direct_sum():
    a = rieffel_N(2, 1)
    b = rieffel_N(3, 0)
    k = oracles.kron(a, b)
    assert k.size == 6
    x = (0.21, 0.0)
    assert np.allclose(oracles.matrix_complex(k, x),
                       np.kron(oracles.matrix_complex(a, x), oracles.matrix_complex(b, x)))
    d = oracles.matrix_direct_sum(a, b)
    assert d.size == 5
    top = oracles.matrix_complex(d, x)[:2, :2]
    assert np.allclose(top, oracles.matrix_complex(a, x))
