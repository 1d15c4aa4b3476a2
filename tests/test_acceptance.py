"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles
from oracles import fraction_matrix, iso_via_bundles, unimodular_sample
from flattori.autofactor import (
    check_cocycle,
    clutching_omega,
    clutching_twist,
    det_cocycle,
    factor_from,
    mumford_c1,
)
from flattori.bundles import X_bundle, endo, omega, twist
from flattori.cohomology import mu_q_image
from flattori.exact_linalg import IntMatrix, SkewRatForm
from flattori.nctorus import (
    IsoStatus,
    NCTorusParams,
    iso_decide,
    q_theta,
)
from flattori.projrep import (
    ProjectiveRep,
    commutant_dim,
    heisenberg_rep,
    intertwiner,
)
from flattori.autofactor import AffinePhase, GenPermPhaseMatrix


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        print(f"criterion {number} ({label}): FAIL (took {elapsed:.1f}s, "
              f"budget {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its time budget")
    print(f"criterion {number} ({label}): PASS in {elapsed:.1f}s")


GRID_Q = (1, 2, 3, 5, 8)
GRID_A = range(-6, 7)


def test_criterion_1_twist_law():
    with criterion(1, "twist law, exact and clutching", 10):
        for q in GRID_Q:
            for a in GRID_A:
                assert twist(X_bundle(q, a)) == -a
                assert clutching_twist(factor_from(q, a)) == -a


def test_criterion_2_omega_coherence():
    with criterion(2, "omega coherence across all three routes", 30):
        for q in GRID_Q:
            for a in GRID_A:
                e = X_bundle(q, a)
                expect = mu_q_image(-a, q)
                assert mu_q_image(twist(e), q) == expect
                assert omega(endo(e)) == expect
                assert clutching_omega(factor_from(q, a)) == expect


def test_criterion_3_q_theta_double_formula():
    with criterion(3, "q_theta agreement with both oracle formulas", 60):
        rng = random.Random(20260810)
        for trial in range(200):
            n = rng.randint(1, 6)
            theta = oracles.random_skew_rat(rng, n, max_den=12, max_num=6)
            q = q_theta(theta)
            assert oracles.stacked_lattice_index(theta) == q * q
            assert oracles.radical(theta.frac())[1] == q * q


def test_criterion_4_desk_scale_bijectivity():
    with criterion(4, "mod-q classes of X(q, a) are a bijection", 5):
        for q in range(1, 9):
            classes = [endo(X_bundle(q, a)) for a in range(q)]
            pairings = sorted(c.beta.mat[0][1] for c in classes)
            assert pairings == list(range(q))
            for i in range(q):
                for j in range(q):
                    assert (classes[i] == classes[j]) == (i == j)


def _skew_from_upper(n, uppers, ell):
    m = [[Fraction(0)] * n for _ in range(n)]
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = Fraction(uppers[idx], ell)
            m[j][i] = -m[i][j]
            idx += 1
    return SkewRatForm(m)


def _corpus():
    """Fixed corpus: every skew form mod ell for small (n, ell), plus seeded
    samples at the larger moduli."""
    rng = random.Random(97)
    corpus = []
    for ell in range(1, 7):
        for x in range(ell):
            corpus.append((2, ell, _skew_from_upper(2, (x,), ell)))
    for ell in (2, 3):
        for x in range(ell):
            for y in range(ell):
                for z in range(ell):
                    corpus.append((3, ell, _skew_from_upper(3, (x, y, z), ell)))
    for ell in (4, 5, 6):
        seen = set()
        while len(seen) < 6:
            seen.add(tuple(rng.randrange(ell) for _ in range(3)))
        for uppers in sorted(seen):
            corpus.append((3, ell, _skew_from_upper(3, uppers, ell)))
    return corpus


def test_criterion_5_isomorphism_decision():
    with criterion(5, "isomorphism decision vs oracle, rules, invariance", 300):
        corpus = _corpus()
        groups = {}
        for n, ell, theta in corpus:
            groups.setdefault((n, ell), []).append(theta)

        pair_count = 0
        for (n, ell), thetas in groups.items():
            units = oracles.all_unit_matrices(n, ell)
            states = [oracles.theta_bar_state(t, ell) for t in thetas]
            orbits = [oracles.orbit_of(s, units, ell) for s in states]
            for i, t1 in enumerate(thetas):
                for j, t2 in enumerate(thetas):
                    expect = oracles.state_key(states[j]) in orbits[i]
                    d = iso_decide(NCTorusParams(n, t1), NCTorusParams(n, t2))
                    assert d.status is not IsoStatus.UNDECIDED
                    assert (d.status is IsoStatus.ISO) == expect
                    if d.status is IsoStatus.ISO:
                        # every positive answer ships a verified certificate
                        diff = fraction_matrix(t2) - fraction_matrix(t1.congruence(d.T))
                        assert diff.is_integral()
                        assert abs(d.T.det()) == 1
                    # the bundle-theoretic route agrees everywhere
                    b = iso_via_bundles(t1, t2, m=1 + (i + j) % 3)
                    assert b.status is d.status
                    pair_count += 1
        assert pair_count >= 400

        # analytic n=2 rule on 100 random instances
        rng = random.Random(101)
        for _ in range(100):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            t1 = SkewRatForm([[0, a], [-a, 0]])
            t2 = SkewRatForm([[0, b], [-b, 0]])
            expect = (a - b) % 1 == 0 or (a + b) % 1 == 0
            got = iso_decide(NCTorusParams(2, t1), NCTorusParams(2, t2))
            assert (got.status is IsoStatus.ISO) == expect

        # invariance under 500 random (T, integer-shift) perturbations
        rng = random.Random(103)
        bases = [
            (_skew_from_upper(2, (1,), 3), _skew_from_upper(2, (2,), 3)),
            (_skew_from_upper(2, (1,), 5), _skew_from_upper(2, (2,), 5)),
            (_skew_from_upper(3, (1, 0, 1), 2), _skew_from_upper(3, (1, 1, 1), 2)),
            (_skew_from_upper(3, (1, 2, 0), 4), _skew_from_upper(3, (3, 2, 0), 4)),
        ]
        wants = [iso_decide(NCTorusParams(t1.n, t1), NCTorusParams(t2.n, t2)).status
                 for t1, t2 in bases]
        for trial in range(500):
            t1, t2 = bases[trial % len(bases)]
            want = wants[trial % len(bases)]
            n = t1.n
            T = unimodular_sample(n, seed=trial, word_length=8)
            z = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.randint(-3, 3)
                    z[i][j] = v
                    z[j][i] = -v
            perturbed = SkewRatForm(fraction_matrix(t1.congruence(T)) + IntMatrix(z))
            got = iso_decide(NCTorusParams(n, perturbed), NCTorusParams(n, t2))
            assert got.status is want


def test_criterion_6_cocycle_exactness():
    with criterion(6, "factor-of-automorphy identity, zero violations", 120):
        for q in range(1, 9):
            for a in range(-8, 9):
                violations = check_cocycle(factor_from(q, a), 100,
                                           seed=1000 * q + a)
                assert violations == []


def test_criterion_7_mumford_formula():
    with criterion(7, "determinant factor Chern form", 30):
        for q in GRID_Q:
            for a in GRID_A:
                form = mumford_c1(det_cocycle(factor_from(q, a)))
                assert form.mat[0][1] == -a
                assert form.mat[1][0] == a


def _block_tuples(max_prod):
    singles = []
    for q in range(2, max_prod + 1):
        ps = {1, q - 1}
        for p in sorted(ps):
            if Fraction(p, q).denominator == q:
                singles.append((Fraction(p, q),))
    multis = []
    for q1 in range(2, max_prod + 1):
        for q2 in range(q1, max_prod + 1):
            if q1 * q2 <= max_prod:
                multis.append((Fraction(1, q1), Fraction(1, q2)))
    triples = [(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
               (Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))]
    return singles + multis + triples


def _normal_form_theta(blocks):
    k = len(blocks)
    n = 2 * k
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, b in enumerate(blocks):
        m[i][k + i] = b
        m[k + i][i] = -b
    return SkewRatForm(m)


def test_criterion_8_heisenberg_representations():
    with criterion(8, "clock/shift representations: exactness, dimension, "
                      "irreducibility, uniqueness", 300):
        for blocks in _block_tuples(12):
            theta = _normal_form_theta(blocks)
            rep = heisenberg_rep(theta)  # commutation verified at construction
            assert rep.dim == q_theta(theta)
            assert commutant_dim(rep) == 1
            # essential uniqueness: a conjugated copy is intertwined
            perm = tuple(range(1, rep.dim)) + (0,)
            P = GenPermPhaseMatrix(perm, [AffinePhase((), 0)] * rep.dim)
            conj = ProjectiveRep([P @ g @ P.inverse() for g in rep.gens],
                                 rep.cocycle)
            assert intertwiner(rep, conj) is not None
