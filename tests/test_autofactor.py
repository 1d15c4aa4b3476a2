import functools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest

from flattori import autofactor
from flattori.autofactor import (
    AffinePhase,
    GenPermPhaseMatrix,
    ScalarFactor,
    check_cocycle,
    clutching_omega,
    clutching_twist,
    det_cocycle,
    factor_from,
    mumford_c1,
)
from flattori.cohomology import AltFormZ, RootOfUnity, mu_q_image
from flattori.exact_linalg import IntMatrix, SkewRatForm
from flattori.projrep import _clock_shift_rep


def _random_matrix(rng, q):
    perm = list(range(q))
    rng.shuffle(perm)
    phases = [AffinePhase((rng.randint(-3, 3), rng.randint(-3, 3)),
                          Fraction(rng.randint(0, 11), 12)) for _ in range(q)]
    return GenPermPhaseMatrix(perm, phases)


def test_affine_phase_mod1_and_ops():
    p = AffinePhase((Fraction(1, 2), 0), Fraction(7, 3))
    assert p.const == Fraction(1, 3)
    q = AffinePhase((Fraction(1, 2), 0), Fraction(2, 3))
    assert (p + q).const == 0
    assert (-p).const == Fraction(2, 3)


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
                          (oracles.phase_translate(p, gamma), rp.translate(gamma)),
                          (oracles.phase_translate(p, rgamma), rp.translate(rgamma))):
            assert (got.linear, got.const) == (want.linear, want.const)
            assert got == AffinePhase(want.linear, want.const)
            assert hash(got) == hash(AffinePhase(want.linear, want.const))
        assert (p == q) == (rp == rq)
        size = rng.randint(1, 4)
        perm = list(range(size))
        rng.shuffle(perm)
        cols = [(tuple(rand_frac() for _ in range(dim)), rand_frac()) for _ in range(size)]
        det = oracles.matrix_det(GenPermPhaseMatrix(perm, [AffinePhase(*c) for c in cols]))
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


def test_gen_perm_matrix_rejects_invalid_data():
    # every check of the public constructor; the library's own builders skip them
    zero, line = AffinePhase((), 0), AffinePhase((1,), 0)
    for perm, phases in (([0, 0], [zero] * 2), ([1, 2], [zero] * 2), ([1, 0], [zero]),
                         ([0, 1], [zero, line])):
        with pytest.raises(ValueError):
            GenPermPhaseMatrix(perm, phases)


def test_gen_perm_matrix_rejects_non_integer_indices():
    ph = [AffinePhase((), 0)] * 2
    for bad in ([0.9, 1.2], [1.0, 0], [Fraction(1, 2), 0], ["1", "0"]):
        with pytest.raises(ValueError):
            GenPermPhaseMatrix(bad, ph)
    # exact integers of other types are accepted as plain ints
    m = GenPermPhaseMatrix(np.array([1, 0]), ph)
    assert m.perm == (1, 0) and all(type(p) is int for p in m.perm)


def test_affine_phase_sign_characters():
    # e(k/2) = (-1)^k
    minus = AffinePhase((), Fraction(1, 2))
    assert abs(oracles.phase_complex(minus, ()) - (-1)) < 1e-12
    assert (minus + minus).const == 0


def test_gen_perm_matrix_pow_matches_repeated_product():
    for q, p in ((5, 2), (6, 1), (12, 7)):
        theta = SkewRatForm([[0, -p], [p, 0]], q)
        for g in _clock_shift_rep(theta, [(q, p)], [(0, 1), (1, 0)]).gens:
            ident = oracles.identity_matrix(q, 0)
            for v in range(-9, 10):
                base = g if v >= 0 else g.inverse()
                want = ident
                for _ in range(abs(v)):
                    want = want @ base
                assert oracles.matrix_power(g, v) == want


def test_gen_perm_matrix_algebra():
    rng = random.Random(2)
    for _ in range(50):
        q = rng.randint(1, 6)
        A, B, C = (_random_matrix(rng, q) for _ in range(3))
        assert (A @ B) @ C == A @ (B @ C)
        assert A @ A.inverse() == oracles.identity_matrix(q, 2)
        assert A.inverse() @ A == oracles.identity_matrix(q, 2)
        g = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert oracles.matrix_translate(A @ B, g) == (oracles.matrix_translate(A, g)
                                                      @ oracles.matrix_translate(B, g))
        # numerical consistency of the product
        x = (0.3, 0.7)
        assert np.allclose(oracles.matrix_complex(A @ B, x),
                           oracles.matrix_complex(A, x) @ oracles.matrix_complex(B, x))
        # determinant is multiplicative
        assert oracles.matrix_det(A @ B) == oracles.matrix_det(A) + oracles.matrix_det(B)


def _assert_as_if_checked(m):
    # a matrix the library stored unchecked is the one the public constructor builds
    assert type(m.perm) is tuple and all(type(p) is int for p in m.perm)
    assert type(m.phases) is tuple
    checked = GenPermPhaseMatrix(m.perm, m.phases)
    assert m == checked and hash(m) == hash(checked)


def test_library_built_matrices_pass_the_public_checks():
    rng = random.Random(1414)
    for _ in range(200):
        q = rng.randint(1, 6)
        A, B = _random_matrix(rng, q), _random_matrix(rng, q)
        blocks = [(rng.randint(1, 4), rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        rows = [[rng.randint(-5, 5) for _ in range(2 * len(blocks) + 1)] for _ in range(3)]
        theta = oracles.block_normal_form(blocks, len(rows[0])).congruence(IntMatrix(rows))
        for m in (A @ B, A.inverse(), *_clock_shift_rep(theta, blocks, rows).gens):
            _assert_as_if_checked(m)
    # exact integers of other types are normalized before the words are built
    F = factor_from(np.int64(4), np.int64(-1))
    assert (type(F.q), type(F.a)) == (int, int)
    assert F.records() == factor_from(4, -1).records()


def test_rieffel_N_shape():
    # the word of N: column j goes to row j - 1 mod q, e(-a s) in column 0
    assert autofactor._rieffel_exponents(1, 3, 1) == ((0,), (-3,))
    assert autofactor._rieffel_exponents(2, 0, 1) == ((1, 0), (0, 0))
    assert autofactor._rieffel_exponents(3, 2, 1) == ((2, 0, 1), (-2, 0, 0))
    with pytest.raises(ValueError):
        factor_from(0, 1)


def test_rieffel_N_det():
    for q in range(1, 7):
        for a in (-2, 0, 3):
            d = det_cocycle(factor_from(q, a)).phases[1]
            assert d.linear == (Fraction(-a), Fraction(0))
            assert d.const == Fraction(q - 1, 2) % 1


def test_factor_values():
    N = oracles.literal_N(3, 2)
    assert oracles.rieffel_N(3, 2, 0) == oracles.identity_matrix(3, 2)
    assert oracles.rieffel_N(3, 2) == N
    assert oracles.rieffel_N(3, 2, 2) == N @ N
    assert oracles.rieffel_N(3, 2, -1) == N.inverse()


def test_factor_value_closed_form_matches_power():
    # N built literally (superdiagonal ones, e(-a s) bottom-left), then
    # N^v by square-and-multiply, against the word of N^v
    for q in range(1, 9):
        for a in range(-8, 9):
            literal = oracles.literal_N(q, a)
            for v in range(-25, 26):
                assert oracles.rieffel_N(q, a, v) == oracles.matrix_power(literal, v), (q, a, v)


def test_check_cocycle_clean():
    for q in (1, 2, 3, 5):
        for a in (-4, 0, 3):
            assert check_cocycle(factor_from(q, a), 100, seed=q * 100 + a) == []


def _shift_odd(exponents):
    # one s-exponent shifted by 1 at odd v
    def corrupted(q, a, v):
        perm, ls = exponents(q, a, v)
        return perm, (ls[0] + v % 2,) + ls[1:]
    return corrupted


def _swap_odd(exponents):
    # the first two perm entries swapped at odd v
    def corrupted(q, a, v):
        perm, ls = exponents(q, a, v)
        return (perm[1], perm[0]) + perm[2:] if v % 2 else perm, ls
    return corrupted


def test_check_cocycle_negative_control(monkeypatch):
    # the exponents both checks read are corrupted: check_cocycle reports
    # violations and construction raises
    exponents = autofactor._rieffel_exponents
    for corruption in (_shift_odd, _swap_odd):
        F = factor_from(3, 1)
        monkeypatch.setattr(autofactor, "_rieffel_exponents", corruption(exponents))
        assert check_cocycle(F, 200, seed=5) != []
        with pytest.raises(AssertionError, match="cocycle identity failed at construction"):
            factor_from(3, 1)
        monkeypatch.setattr(autofactor, "_rieffel_exponents", exponents)


def test_exponent_check_matches_matrix_oracle(monkeypatch):
    # the check on integer exponents against the literal product of built,
    # translated matrices, on every pair in [-3, 3]^2, for clean factors and
    # for factors whose exponent source is corrupted
    gs = [(u, v) for u in range(-3, 4) for v in range(-3, 4)]
    pairs = [(g1, g2) for g1 in gs for g2 in gs]
    for q in range(1, 9):
        for a in range(-8, 9):
            F = factor_from(q, a)
            value = functools.cache(lambda g: oracles.rieffel_N(q, a, g[1]))  # each built once
            assert autofactor._violations(F, pairs) == []
            assert not any(oracles.matrix_violates(value, g1, g2) for g1, g2 in pairs)
    exponents = autofactor._rieffel_exponents
    for corruption in (_shift_odd, _swap_odd):
        for q, a in ((2, 1), (3, -2), (5, 4)):
            F = factor_from(q, a)
            monkeypatch.setattr(autofactor, "_rieffel_exponents", corruption(exponents))
            flagged = autofactor._violations(F, pairs)
            value = functools.cache(lambda g: oracles.rieffel_N(q, a, g[1]))
            assert flagged == [(g1, g2) for g1, g2 in pairs
                               if oracles.matrix_violates(value, g1, g2)]
            assert flagged
            monkeypatch.setattr(autofactor, "_rieffel_exponents", exponents)


def test_check_cocycle_draws_the_randint_pairs(monkeypatch):
    # every exponent shifted by 1 makes every pair a violation, so
    # check_cocycle returns all the pairs it drew, in order
    exponents = autofactor._rieffel_exponents
    F = factor_from(4, 3)
    monkeypatch.setattr(autofactor, "_rieffel_exponents", lambda q, a, v: (
        exponents(q, a, v)[0], tuple(l + 1 for l in exponents(q, a, v)[1])))
    for seed in (0, 7, 21):
        rng = random.Random(seed)
        drawn = [tuple((rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(2))
                 for _ in range(300)]
        assert check_cocycle(F, 300, seed=seed) == drawn


def test_exponents_built_once_per_distinct_v(monkeypatch):
    calls = []
    exponents = autofactor._rieffel_exponents
    monkeypatch.setattr(autofactor, "_rieffel_exponents",
                        lambda q, a, v: calls.append(v) or exponents(q, a, v))
    F = factor_from(5, 2)
    assert sorted(calls) == [0, 1, 2]  # the 9 construction pairs need v = 0, 1, 2
    calls.clear()
    rng = random.Random(3)
    pairs = [tuple((rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(2))
             for _ in range(500)]
    assert check_cocycle(F, 500, seed=3) == []
    assert sorted(calls) == sorted({v for g1, g2 in pairs
                                    for v in (g1[1], g2[1], g1[1] + g2[1])})


def test_closed_form_words_match_the_column_reference():
    for q in range(1, 13):
        for a in range(-9, 10):
            for v in range(-40, 41):
                assert autofactor._rieffel_exponents(q, a, v) == oracles.column_exponents(q, a, v)


def _pair_lists(rng):
    # pair lists with many repeated (v1, v2): the u entries vary freely, the
    # v entries come from a small set, and some pairs are repeated outright
    for size in (1, 9, 60, 300):
        vs = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
        pairs = [((rng.randint(-10, 10), rng.choice(vs)), (rng.randint(-10, 10), rng.choice(vs)))
                 for _ in range(size)]
        yield pairs + rng.sample(pairs, min(size, 7))


def test_violations_match_the_per_pair_reference(monkeypatch):
    # one verdict per (v1, v2) returns the pairs that one composition per
    # pair returns, in order and with repeats, on clean and corrupted words
    rng = random.Random(33)
    for q in range(1, 9):
        for a in (-7, -1, 0, 2, 5):
            F = factor_from(q, a)
            for pairs in _pair_lists(rng):
                assert autofactor._violations(F, pairs) == oracles.violations_per_pair(F, pairs) == []
    exponents = autofactor._rieffel_exponents
    for corruption in (_shift_odd, _swap_odd):
        for q, a in ((2, 1), (3, -2), (5, 4), (8, 7)):
            F = factor_from(q, a)
            monkeypatch.setattr(autofactor, "_rieffel_exponents", corruption(exponents))
            flagged = 0
            for pairs in _pair_lists(rng):
                bad = autofactor._violations(F, pairs)
                assert bad == oracles.violations_per_pair(F, pairs), (corruption, q, a)
                flagged += len(bad)
            assert flagged
            monkeypatch.setattr(autofactor, "_rieffel_exponents", exponents)


def test_check_cocycle_pairs_match_randint_over_the_seed_range(monkeypatch):
    # every exponent shifted by 1 makes every pair a violation, so
    # check_cocycle returns all its pairs: randint's, for seeds across the
    # benchmark's range [0, 2**31 - 1]
    exponents = autofactor._rieffel_exponents
    F = factor_from(3, -2)
    monkeypatch.setattr(autofactor, "_rieffel_exponents", lambda q, a, v: (
        exponents(q, a, v)[0], tuple(l + 1 for l in exponents(q, a, v)[1])))
    rng = random.Random(2 ** 31 - 1)
    for seed in (0, 1, 2 ** 31 - 1, *(rng.randrange(2 ** 31) for _ in range(40))):
        for trials in (1, 20, 300):
            draw = random.Random(seed).randint
            assert check_cocycle(F, trials, seed=seed) == [
                ((draw(-10, 10), draw(-10, 10)), (draw(-10, 10), draw(-10, 10)))
                for _ in range(trials)], (seed, trials)


def test_check_cocycle_memory_does_not_grow_with_trials():
    # the pairs are streamed: only verdicts per (v1, v2) and words per v are
    # kept, so 300000 trials need no list of 300000 pairs
    src = os.path.dirname(os.path.dirname(autofactor.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import resource\n"
            "from flattori.autofactor import check_cocycle, factor_from\n"
            "F = factor_from(4, 3)\n"
            "assert check_cocycle(F, 1000) == []\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert check_cocycle(F, 300000, seed=7) == []\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 1024, f"ru_maxrss grew by {proc.stdout.strip()} KiB"


@pytest.mark.parametrize("trials", [0, -4, False, 2.5, 3.0, "3", None])
def test_check_cocycle_rejects_meaningless_trials(trials):
    F = factor_from(3, 1)
    with pytest.raises(ValueError, match="trials must be an integer >= 1|not an integer index"):
        check_cocycle(F, trials)
    assert check_cocycle(F, 1) == []
    assert check_cocycle(F, True) == check_cocycle(F, 1)


def test_factor_from_rejects_inexact_or_small_q_with_messages():
    for q, a, message in ((2.0, 1, "not an integer index: 2.0"),
                          (3, 1.5, "not an integer index: 1.5"),
                          (0, 1, "q must be an integer >= 1, got 0"),
                          (-2, 1, "q must be an integer >= 1, got -2")):
        with pytest.raises(ValueError) as exc:
            factor_from(q, a)
        assert str(exc.value) == message


@pytest.mark.parametrize("build", [
    lambda: AffinePhase(3, 0),
    lambda: ScalarFactor([1], [0]),
    lambda: ScalarFactor([[1]], 0),
    lambda: ScalarFactor([], []),
    lambda: GenPermPhaseMatrix([0], [0.5]),
    lambda: GenPermPhaseMatrix([0], 0.5),
    lambda: GenPermPhaseMatrix(0, [AffinePhase((), 0)]),
], ids=["phase-linear-not-a-sequence", "scalar-rows-flat", "scalar-consts-not-a-sequence", "scalar-no-generators",
        "matrix-phase-not-a-phase", "matrix-phases-not-a-sequence", "matrix-perm-not-a-sequence"])
def test_constructors_reject_malformed_input_with_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_perm_parity_matches_inversion_count():
    rng = random.Random(4040)
    for size in range(1, 41):
        for _ in range(10):
            perm = list(range(size))
            rng.shuffle(perm)
            assert autofactor._perm_parity(tuple(perm)) == oracles.inversion_parity(perm)


def test_det_cocycle_matches_entrywise_det():
    rng = random.Random(8)
    for q in (1, 2, 3, 4, 7):
        for a in (-3, 0, 2):
            F = factor_from(q, a)
            sf = det_cocycle(F)
            for _ in range(25):
                g = (rng.randint(-6, 6), rng.randint(-6, 6))
                assert (oracles.scalar_value_loop(sf, g)
                        == oracles.matrix_det(oracles.rieffel_N(q, a, g[1])))
            # the determinant phases against the Fraction reference
            for v, phase in enumerate(sf.phases):
                N = oracles.rieffel_N(q, a, v)
                want = oracles.fraction_det(N.perm, [oracles.FractionPhase(p.linear, p.const)
                                                     for p in N.phases])
                assert (phase.linear, phase.const) == (want.linear, want.const)


def test_det_cocycle_values():
    sf = det_cocycle(factor_from(2, 1))
    # gamma = (0,1): -e(-s), i.e. linear (-1, 0) with constant 1/2
    v = oracles.scalar_value_loop(sf, (0, 1))
    assert v.linear == (Fraction(-1), Fraction(0))
    assert v.const == Fraction(1, 2)
    assert oracles.scalar_value_loop(sf, (1, 0)) == oracles.zero_phase(2)
    # odd q: trivial sign
    sf3 = det_cocycle(factor_from(3, 1))
    assert oracles.scalar_value_loop(sf3, (0, 1)).const == 0


def test_mumford_c1_matches_recursion():
    # the coherence matrix against the values at the unit vectors, by the
    # recursion, and their translation increments
    for q in range(1, 9):
        for a in range(-8, 9):
            f = det_cocycle(factor_from(q, a))
            assert mumford_c1(f) == oracles.mumford_c1_recursion(f), (q, a)
    rng = random.Random(37)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    for trial in range(600):
        n = 1 + trial % 5
        # coherent: l_i[j] - l_j[i] is an integer
        sym = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rational()
        xcoeff = [[sym[i][j] + rng.randint(-3, 3) for j in range(n)] for i in range(n)]
        f = ScalarFactor(xcoeff, [rational() for _ in range(n)])
        assert mumford_c1(f) == oracles.mumford_c1_recursion(f), xcoeff


def test_scalar_factor_keeps_its_chern_form():
    for q in range(1, 10):
        for a in range(-9, 10):
            f = det_cocycle(factor_from(q, a))
            assert f.c1 == mumford_c1(f) == AltFormZ([[0, -a], [a, 0]]), (q, a)


def test_mumford_c1():
    for q in (1, 2, 3, 5, 8):
        for a in range(-6, 7):
            form = mumford_c1(det_cocycle(factor_from(q, a)))
            assert form.mat[0][1] == -a
    const = ScalarFactor(((0, 0), (0, 0)), (Fraction(1, 2), Fraction(1, 3)))
    assert mumford_c1(const) == AltFormZ([[0, 0], [0, 0]])


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
    assert oracles.winding_number(np.exp(2j * np.pi * t)) == 1
    assert oracles.winding_number(np.ones(50)) == 0
    assert oracles.winding_number(np.exp(-2j * np.pi * 3 * t)) == -3


def test_winding_number_undersampled():
    t = np.linspace(0.0, 1.0, 9)
    with pytest.raises(oracles.UnwrapError):
        oracles.winding_number(np.exp(2j * np.pi * 5 * t))


def test_clutching_twist():
    for q in (1, 2, 3, 5):
        for a in range(-6, 7):
            assert clutching_twist(factor_from(q, a)) == -a


@pytest.mark.parametrize("call", [
    lambda: factor_from(2.0, 1),
    lambda: factor_from(3, 1.5),
], ids=["q-float", "a-float"])
def test_non_integer_inputs_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def _sample_counts(q, a):
    # the least count the unwrapping bound admits, and a generous 64 q (|a| + 1)
    return 4 * (1 + abs(a) * q), 64 * q * (abs(a) + 1)


def test_clutching_twist_matches_dense_reference():
    for q in range(1, 9):
        for a in range(-8, 9):
            F = factor_from(q, a)
            for samples in _sample_counts(q, a):
                assert clutching_twist(F) == oracles.clutching_twist_dense(F, samples), \
                    (q, a, samples)
    # the dense loop alone is 17 MB at q = 64 with the least sample count
    F = factor_from(64, 1)
    assert clutching_twist(F) == oracles.clutching_twist_dense(F, _sample_counts(64, 1)[0]) == -1


def test_clutching_memory_at_large_q():
    # the exact invariants hold q exponents, not a sampled loop
    F = factor_from(64, 1)
    tracemalloc.start()
    try:
        assert clutching_twist(F) == -1
        assert clutching_omega(F) == RootOfUnity(Fraction(63, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_clutching_twist_insufficient_samples():
    # the sampled reference refuses to answer below the unwrapping bound
    # instead of returning a wrong winding number
    F = factor_from(3, 5)
    assert clutching_twist(F) == -5
    with pytest.raises(oracles.UnwrapError):
        oracles.clutching_twist_dense(F, 10)


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
            for samples in _sample_counts(q, a):
                assert clutching_omega(F) == oracles.clutching_omega_loop(F, samples), \
                    (q, a, samples)
    F = factor_from(64, 1)
    assert clutching_omega(F) == oracles.clutching_omega_loop(F, _sample_counts(64, 1)[0])


def test_loop_matrices_match_symbolic():
    F = factor_from(4, 3)
    mats = oracles.loop_matrices(F, 32)
    sym = oracles.rieffel_N(4, 3)
    for k in (0, 7, 32):
        assert np.allclose(mats[k], oracles.matrix_complex(sym, (k / 32, 0.0)))


def test_clutching_matches_exact_invariants_full_grid():
    # the loop's exponents and the exact cohomological formulas coincide
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
    assert factor_from(3, -2).records() == [
        ((1, 0), [0, 1, 2], [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        ((0, 1), [2, 0, 1], [["2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]])]
    # the records of the words are those of the built matrices' phases
    for q in range(1, 9):
        for a in range(-8, 9):
            assert factor_from(q, a).records() == [
                (g, list(m.perm), [[str(x) for x in (*p.linear, p.const)] for p in m.phases])
                for g in ((1, 0), (0, 1)) for m in [oracles.rieffel_N(q, a, g[1])]]


def test_kron_and_direct_sum():
    a = oracles.rieffel_N(2, 1)
    b = oracles.rieffel_N(3, 0)
    k = oracles.kron(a, b)
    assert k.size == 6
    x = (0.21, 0.0)
    assert np.allclose(oracles.matrix_complex(k, x),
                       np.kron(oracles.matrix_complex(a, x), oracles.matrix_complex(b, x)))
    d = oracles.matrix_direct_sum(a, b)
    assert d.size == 5
    top = oracles.matrix_complex(d, x)[:2, :2]
    assert np.allclose(top, oracles.matrix_complex(a, x))
