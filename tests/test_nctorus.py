import hashlib
import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import oracles
import pytest
from oracles import fraction_matrix, iso_via_bundles, unimodular_sample

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import keys  # noqa: E402  the benchmark's plain-Fraction certificate check

from flattori import nctorus
from flattori.cohomology import AltFormModQ, AltFormZ, pullback
from flattori.exact_linalg import IntMatrix, SkewRatForm, SymplecticNF, smith_normal_form
from flattori.nctorus import (
    IsoStatus,
    NCTorusParams,
    bundle_of,
    iso_decide,
    normal_form,
    q_theta,
)


def skew2(x):
    return SkewRatForm([[0, Fraction(x)], [-Fraction(x), 0]])


def skew_blocks(*vals):
    k = len(vals)
    n = 2 * k
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, v in enumerate(vals):
        m[2 * i][2 * i + 1] = Fraction(v)
        m[2 * i + 1][2 * i] = -Fraction(v)
    return SkewRatForm(m)


def params(theta, m=1):
    return NCTorusParams(theta.n, theta, m)


def rand_int_skew(rng, n, bound=3):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            m[i][j] = v
            m[j][i] = -v
    return IntMatrix(m)


def test_q_theta_examples():
    assert q_theta(skew2(Fraction(3, 7))) == 7
    assert q_theta(skew2(0)) == 1
    assert q_theta(skew_blocks(Fraction(1, 2), Fraction(1, 3))) == 6


def test_q_theta_brute_force_index():
    # q_theta^2 against both oracle routes, and against brute force where
    # ell^n <= 4096: zero and integer forms, block forms with free
    # directions, and random forms with their transports and integer shifts
    rng = random.Random(31)
    forms = [SkewRatForm(IntMatrix([[0] * n] * n)) for n in range(1, 9)]
    forms += [SkewRatForm(rand_int_skew(rng, n)) for n in range(1, 9)]
    for trial in range(24):
        n = 1 + trial % 8
        k = rng.randint(min(1, n // 2), n // 2)
        pairs = [(q, rng.choice([p for p in range(1, q + 1) if gcd(p, q) == 1]))
                 for q in (rng.randint(1, 6) for _ in range(k))]
        block = oracles.block_normal_form(pairs, n)
        assert q_theta(block) == prod(q for q, _ in pairs)
        theta = oracles.random_skew_rat(rng, n, max_den=1 + trial % 6, max_num=4)
        T = unimodular_sample(n, seed=trial, word_length=8)
        for form in (block, theta):
            shifted = SkewRatForm(fraction_matrix(form) + rand_int_skew(rng, n))
            forms += [form, form.congruence(T), shifted]
    for theta in forms:
        q = q_theta(theta)
        assert oracles.stacked_lattice_index(theta) == q * q == oracles.radical(theta)[1]
        if theta.ell ** theta.n <= 4096:
            assert q * q == oracles.brute_force_lattice_index(theta)
    assert {q_theta(theta) for theta in forms[:16]} == {1}


def test_q_theta_row_stacking_matches_column_stacking():
    # the stacked-lattice oracle takes the Smith form of the generators
    # stacked as rows, [ell I ; S]; that lattice is the one of the columns of
    # [ell I | S], and q_theta, one Smith form of S, gives the same index
    rng = random.Random(43)
    for trial in range(320):
        n = 1 + trial % 8
        theta = oracles.random_skew_rat(rng, n, max_den=1 + trial % 12, max_num=9)
        ell, S = theta.ell, theta.S
        cols = IntMatrix([[ell if i == j else 0 for j in range(n)] + list(S[i])
                          for i in range(n)])
        _, D, _ = oracles.smith_with_transforms(cols)
        index = ell ** n // prod(D[i][i] for i in range(n))
        rows = IntMatrix([[ell if i == j else 0 for j in range(n)] for i in range(n)]
                         + list(S.entries))
        assert smith_normal_form(rows) == tuple(D[i][i] for i in range(n))
        assert oracles.stacked_lattice_index(theta) == q_theta(theta) ** 2 == index


def test_q_theta_congruence_and_shift_invariant():
    rng = random.Random(37)
    for trial in range(150):
        n = rng.randint(1, 4)
        theta = oracles.random_skew_rat(rng, n, max_den=8, max_num=5)
        T = unimodular_sample(n, seed=trial, word_length=10)
        congruent = theta.congruence(T)
        shifted = SkewRatForm(fraction_matrix(theta) + rand_int_skew(rng, n))
        assert q_theta(congruent) == q_theta(theta)
        assert q_theta(shifted) == q_theta(theta)
        # block denominators (the divisor-chain invariants) survive both moves
        qs = [q for q, _ in normal_form(theta).blocks if q > 1]
        assert [q for q, _ in normal_form(congruent).blocks if q > 1] == qs
        assert [q for q, _ in normal_form(shifted).blocks if q > 1] == qs


def test_normal_form_zero():
    nf = normal_form(SkewRatForm([[0] * 3 for _ in range(3)]))
    assert nf.blocks == ()
    assert nf.free_rank == 3


def test_normal_form_already_normal():
    nf = normal_form(skew2(Fraction(5, 3)))
    assert nf.blocks == ((3, 5),)
    assert nf.T == IntMatrix.identity(2)


def test_normal_form_shuffled_blocks():
    rng = random.Random(41)
    base = skew_blocks(Fraction(1, 2), Fraction(1, 3))
    for trial in range(20):
        T0 = unimodular_sample(4, seed=900 + trial, word_length=12)
        shuffled = base.congruence(T0)
        nf = normal_form(shuffled)  # certificate verified inside
        qs = [q for q, _ in nf.blocks]
        prod = 1
        for q in qs:
            prod *= q
        assert prod == 6
        assert all(qs[i + 1] % qs[i] == 0 for i in range(len(qs) - 1))


def test_normal_form_rejects_a_wrong_divisor(monkeypatch):
    real = nctorus.symplectic_normal_form
    theta = skew_blocks(Fraction(1, 2), Fraction(1, 3)).congruence(
        unimodular_sample(4, seed=7, word_length=12))
    for k in (0, -1):
        for wrong in (lambda e: 2 * e, lambda e: e + 6):
            def patched(M, k=k, wrong=wrong):
                nf = real(M)
                divisors = list(nf.divisors)
                divisors[k] = wrong(divisors[k])
                return SymplecticNF(T=nf.T, divisors=tuple(divisors))

            monkeypatch.setattr(nctorus, "symplectic_normal_form", patched)
            with pytest.raises(AssertionError, match="certificate"):
                normal_form(theta)
    monkeypatch.undo()
    assert normal_form(theta).blocks == ((1, 1), (6, 1))


def test_c1_examples():
    # c1 of the canonical module bundle is q_theta * theta, natural under
    # congruence
    def c1(theta):
        return bundle_of(theta)[0].c1

    assert c1(skew2(0)) == AltFormZ([[0, 0], [0, 0]])
    c = c1(skew2(Fraction(2, 5)))
    assert c.mat[0][1] == 2
    rng = random.Random(43)
    for trial in range(30):
        n = rng.randint(1, 4)
        theta = oracles.random_skew_rat(rng, n, max_den=6, max_num=4)
        T = unimodular_sample(n, seed=3000 + trial, word_length=8)
        assert c1(theta).mat == theta.scaled_int(q_theta(theta))
        lhs = c1(theta.congruence(T))
        rhs = pullback(c1(theta), T.transpose())
        assert lhs == rhs


def test_bundle_of():
    vec, mat, rep = bundle_of(skew2(0))
    assert vec.rank == 1 and vec.c1 == AltFormZ([[0, 0], [0, 0]])
    assert mat.beta == AltFormModQ([[0, 0], [0, 0]], 1)
    assert rep.dim == 1

    vec, mat, rep = bundle_of(skew2(Fraction(1, 3)))
    assert vec.rank == 3
    assert vec.c1.mat[0][1] == 1
    assert rep.dim == 3

    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(1, 3)
        theta = oracles.random_skew_rat(rng, n, max_den=4, max_num=3)
        vec, _, rep = bundle_of(theta)
        assert rep.dim == vec.rank


def test_bundle_of_generators_match_kron_power_reference():
    # the transported generators, written in closed form, against products
    # of square-and-multiply powers of Kronecker-built clock/shift generators
    rng = random.Random(61)
    for trial in range(100):
        n = 2 + trial % 4
        theta = oracles.random_skew_rat(rng, n, max_den=6, max_num=6)
        _, _, rep = bundle_of(theta)
        nf = normal_form(theta)
        rows = nf.T.inverse_unimodular().entries
        assert rep.gens == tuple(oracles.kron_power_words(nf.blocks, rows)), theta


def test_iso_third_and_two_thirds():
    d = iso_decide(params(skew2(Fraction(1, 3))), params(skew2(Fraction(2, 3))))
    assert d.status is IsoStatus.ISO
    # certificate holds literally
    moved = skew2(Fraction(1, 3)).congruence(d.T)
    diff = fraction_matrix(skew2(Fraction(2, 3))) - fraction_matrix(moved)
    assert diff.is_integral()
    assert abs(d.T.det()) == 1


def test_iso_fifth_negative():
    d = iso_decide(params(skew2(Fraction(1, 5))), params(skew2(Fraction(2, 5))))
    assert d.status is IsoStatus.NOT_ISO


def test_iso_integer_shift(monkeypatch):
    # a shift-only pair is certified by T = I and exactly that shift, before
    # any normal form is taken
    calls = []
    for name in ("symplectic_normal_form", "smith_normal_form"):
        def counted(M, real=getattr(nctorus, name), name=name):
            calls.append(name)
            return real(M)
        monkeypatch.setattr(nctorus, name, counted)
    rng = random.Random(18)
    cases = [(skew2(Fraction(1, 3)), IntMatrix([[0, 4], [-4, 0]]))]
    for n in (3, 4, 8):
        cases.append((oracles.random_skew_rat(rng, n), rand_int_skew(rng, n)))
    for theta, shift in cases:
        d = iso_decide(params(theta), params(SkewRatForm(fraction_matrix(theta) + shift)))
        assert d.status is IsoStatus.ISO
        assert d.T == IntMatrix.identity(theta.n)
        assert d.shift == shift
    assert calls == []
    # a pair that differs mod Z still takes both normal forms
    theta = skew2(Fraction(1, 3))
    assert iso_decide(params(theta), params(skew2(Fraction(2, 3)))).is_iso
    assert {"symplectic_normal_form", "smith_normal_form"} <= set(calls)


def test_iso_rejects_n_m_mismatch():
    t2 = skew2(Fraction(1, 3))
    t3 = SkewRatForm([[0, Fraction(1, 3), 0], [Fraction(-1, 3), 0, 0], [0, 0, 0]])
    assert iso_decide(params(t2), params(t3)).status is IsoStatus.NOT_ISO
    assert iso_decide(params(t2, m=1), params(t2, m=2)).status is IsoStatus.NOT_ISO


def test_iso_n2_analytic_rule():
    rng = random.Random(53)
    for _ in range(100):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        expect = (a - b) % 1 == 0 or (a + b) % 1 == 0
        got = iso_decide(params(skew2(a)), params(skew2(b)))
        assert (got.status is IsoStatus.ISO) == expect


def test_iso_perturbation_invariance():
    # equal chains with a q = 1 block on one side where the other has free
    # directions, in both argument orders: pairing blocks by index fails here
    rng = random.Random(59)
    half_third, sixth = skew_blocks(Fraction(1, 2), Fraction(1, 3)), skew_blocks(Fraction(1, 6), 0)
    with_q1 = skew_blocks(Fraction(1, 3), Fraction(1, 6), 2)
    with_free = skew_blocks(Fraction(1, 3), Fraction(5, 6), 0)
    base_pairs = [
        (skew2(Fraction(1, 3)), skew2(Fraction(2, 3))),
        (skew2(Fraction(1, 5)), skew2(Fraction(2, 5))),
        (half_third, sixth),
        (sixth, half_third),
        (with_q1, with_free),
        (with_free, with_q1),
    ]
    for t1, t2 in base_pairs:
        want = iso_decide(params(t1), params(t2)).status
        for trial in range(25):
            n = t1.n
            T = unimodular_sample(n, seed=7700 + trial, word_length=10)
            t1p = SkewRatForm(fraction_matrix(t1.congruence(T)) + rand_int_skew(rng, n))
            d = iso_decide(params(t1p), params(t2))
            assert d.status is want
            assert_divisor_route_agrees(d, t1p, t2)


def test_iso_equivalence_relation_with_certificates():
    rng = random.Random(61)
    corpus = [oracles.random_skew_rat(rng, 2, max_den=4, max_num=4) for _ in range(20)]
    corpus += [oracles.random_skew_rat(rng, 3, max_den=3, max_num=3) for _ in range(10)]
    for theta in corpus:
        d = iso_decide(params(theta), params(theta))
        assert d.status is IsoStatus.ISO
    for i in range(0, len(corpus) - 1, 2):
        a, b = corpus[i], corpus[i + 1]
        if a.n != b.n:
            continue
        dab = iso_decide(params(a), params(b))
        dba = iso_decide(params(b), params(a))
        assert (dab.status is IsoStatus.ISO) == (dba.status is IsoStatus.ISO)
        if dab.status is IsoStatus.ISO:
            # symmetry via certificate inversion
            Tinv = dab.T.inverse_unimodular()
            assert (fraction_matrix(a) - fraction_matrix(b.congruence(Tinv))).is_integral()
    # transitivity via certificate composition
    t1 = skew2(Fraction(1, 3))
    t2 = SkewRatForm(fraction_matrix(t1.congruence(unimodular_sample(2, 5, 9)))
                     + rand_int_skew(rng, 2))
    t3 = SkewRatForm(fraction_matrix(t2.congruence(unimodular_sample(2, 6, 9)))
                     + rand_int_skew(rng, 2))
    d12 = iso_decide(params(t1), params(t2))
    d23 = iso_decide(params(t2), params(t3))
    assert d12.status is IsoStatus.ISO and d23.status is IsoStatus.ISO
    T13 = d23.T @ d12.T
    assert (fraction_matrix(t3) - fraction_matrix(t1.congruence(T13))).is_integral()


def test_iso_matches_exhaustive_oracle_small():
    rng = random.Random(67)
    cases = []
    for n, ell, count in [(2, 2, 2), (2, 3, 3), (2, 4, 4), (3, 2, 6), (3, 3, 6)]:
        forms = []
        for _ in range(count):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = rng.randrange(ell)
                    m[i][j] = Fraction(v, ell)
                    m[j][i] = -m[i][j]
            forms.append(SkewRatForm(m))
        cases.append((n, ell, forms))
    for n, ell, forms in cases:
        units = oracles.all_unit_matrices(n, ell)
        states = [oracles.theta_bar_state(t, ell) for t in forms]
        orbits = [oracles.orbit_of(s, units, ell) for s in states]
        for i in range(len(forms)):
            for j in range(len(forms)):
                expect = oracles.state_key(states[j]) in orbits[i]
                got = iso_decide(params(forms[i]), params(forms[j]))
                assert (got.status is IsoStatus.ISO) == expect


def test_iso_matches_oracle_mixed_denominators():
    # entries with different denominators in one form; the walk modulus is
    # their lcm and must agree with the dense enumeration at that modulus
    rng = random.Random(73)
    for n, ell in [(2, 6), (3, 4), (3, 6)]:
        units = oracles.all_unit_matrices(n, ell)
        forms = []
        for _ in range(5):
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    den = rng.choice([d for d in (1, 2, 3, 4, 6) if ell % d == 0])
                    m[i][j] = Fraction(rng.randrange(den), den)
                    m[j][i] = -m[i][j]
            forms.append(SkewRatForm(m))
        states = [oracles.theta_bar_state(t, ell) for t in forms]
        orbits = [oracles.orbit_of(s, units, ell) for s in states]
        for i in range(len(forms)):
            for j in range(len(forms)):
                expect = oracles.state_key(states[j]) in orbits[i]
                got = iso_decide(params(forms[i]), params(forms[j]))
                assert (got.status is IsoStatus.ISO) == expect
                if got.status is IsoStatus.ISO:
                    diff = fraction_matrix(forms[j]) - fraction_matrix(forms[i].congruence(got.T))
                    assert diff.is_integral()


def test_iso_via_bundles_agrees():
    pairs = [
        (skew2(Fraction(1, 3)), skew2(Fraction(2, 3))),
        (skew2(Fraction(1, 5)), skew2(Fraction(2, 5))),
        (skew2(Fraction(1, 4)), skew2(Fraction(3, 4))),
        (skew_blocks(Fraction(1, 2), Fraction(1, 3)), skew_blocks(Fraction(1, 6), 0)),
        (skew_blocks(Fraction(1, 2), Fraction(1, 2)), skew_blocks(Fraction(1, 2), Fraction(3, 2))),
    ]
    for t1, t2 in pairs:
        want = iso_decide(params(t1), params(t2)).status
        for m in (1, 2, 5):
            assert iso_via_bundles(t1, t2, m).status is want


def test_frac_representative_independence():
    # reduction to [0,1) commutes with the decision: shifted inputs give the
    # same answers as their frac representatives
    rng = random.Random(71)
    for trial in range(30):
        n = rng.randint(2, 3)
        theta = oracles.random_skew_rat(rng, n, max_den=4, max_num=8)
        other = oracles.random_skew_rat(rng, n, max_den=4, max_num=8)
        d1 = iso_decide(params(theta), params(other)).status
        d2 = iso_decide(params(theta.frac()), params(other.frac())).status
        assert d1 is d2


def test_q_theta_equal_pre_in_iso_via_bundles():
    assert iso_via_bundles(skew2(Fraction(1, 3)), skew2(Fraction(1, 5))).status \
        is IsoStatus.NOT_ISO


def test_iso_via_bundles_rejects_on_invariant_chain():
    # equal q_theta = 4, chains (2, 2) and (4): both decisions reject on the
    # chain
    t1 = skew_blocks(Fraction(1, 2), Fraction(1, 2))
    t2 = skew_blocks(Fraction(1, 4), 0)
    assert q_theta(t1) == q_theta(t2)
    assert iso_decide(params(t1), params(t2)).status is IsoStatus.NOT_ISO
    assert iso_via_bundles(t1, t2).status is IsoStatus.NOT_ISO


def test_packed_step_matches_literal_congruence():
    # the orbit-walk reference: packed generator steps are g S g^t mod ell
    rng = random.Random(79)
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for ell in (2, 3, 4, 6, 12):
            gens = oracles.generators(n, ell)
            mats = [g for g, _ in gens]
            assert len(set(mats)) == len(mats)
            assert oracles.identity(n) not in mats
            # E(+1) = E(-1) and J = I mod 2
            assert len(gens) == (n * (n - 1) if ell == 2 else 2 * n * (n - 1) + 1)
            for _ in range(4):
                m = [[Fraction(0)] * n for _ in range(n)]
                for i, j in pairs:
                    m[i][j] = Fraction(rng.randrange(-2 * ell, 2 * ell), ell)
                    m[j][i] = -m[i][j]
                theta = SkewRatForm(m)
                dense = oracles.theta_bar_state(theta, ell)
                state = oracles.theta_bar(theta, ell)
                assert state == tuple(dense[i][j] for i, j in pairs)
                for g, updates in gens:
                    want = [[sum(g[i][a] * dense[a][b] * g[j][b]
                                 for a in range(n) for b in range(n)) % ell
                             for j in range(n)] for i in range(n)]
                    got = oracles.step(state, updates, ell)
                    for t, (i, j) in enumerate(pairs):
                        assert got[t] == want[i][j]
                        assert (got[t] + want[j][i]) % ell == 0
                    assert all(want[i][i] == 0 for i in range(n))


def test_long_word_certificate_verifies():
    # g mod ell is built from both normal forms, lifted and verified; the
    # returned certificate must hold literally for a long transporting word
    rng = random.Random(83)
    for t1 in (skew_blocks(Fraction(1, 5), Fraction(2, 5)),
               skew_blocks(Fraction(1, 12), Fraction(1, 6), Fraction(1, 2))):
        for _ in range(3):
            t2 = transported(rng, t1, word_length=32)
            assert_certified(iso_decide(params(t1), params(t2)), t1, t2)


def test_bundle_of_n4_denominators_4_and_5_within_budget():
    # entries of the inverse normal-form certificate run into the hundreds
    # here; with |v| products per power this took over 10 s
    theta = SkewRatForm([[Fraction(x) for x in row] for row in (
        ("0", "3/4", "1/2", "1/3"), ("-3/4", "0", "1/2", "1/4"),
        ("-1/2", "-1/2", "0", "4/5"), ("-1/3", "-1/4", "-4/5", "0"))])
    start = time.perf_counter()
    vec, _, rep = bundle_of(theta)
    elapsed = time.perf_counter() - start
    assert vec.rank == rep.dim == q_theta(theta) == 120
    assert elapsed < 3.0, f"bundle_of took {elapsed:.2f} s (budget 3 s)"


DECISION_BUDGET_S = 0.1


def timed_decide(t1, t2):
    start = time.perf_counter()
    d = iso_decide(params(t1), params(t2))
    elapsed = time.perf_counter() - start
    assert elapsed < DECISION_BUDGET_S, f"decision took {elapsed:.3f} s (budget 0.1 s)"
    return d


def pfaffian_mod(theta, ell):
    return oracles.pfaffian(oracles.theta_bar_state(theta, ell)) % ell


def transported(rng, theta, word_length=16):
    n = theta.n
    T = unimodular_sample(n, seed=rng.randrange(10 ** 6), word_length=word_length)
    return SkewRatForm(fraction_matrix(theta.congruence(T)) + rand_int_skew(rng, n))


def assert_certified(d, t1, t2):
    assert d.status is IsoStatus.ISO
    assert abs(d.T.det()) == 1
    assert fraction_matrix(t2) - fraction_matrix(t1.congruence(d.T)) == d.shift
    theta, theta2 = ([[Fraction(x, t.ell) for x in row] for row in t.S.entries] for t in (t1, t2))
    assert keys.certificate_error(theta, theta2, d.T.entries, d.shift.entries) is None


def assert_divisor_route_agrees(d, t1, t2):
    """The decision matches the divisor route of tests/oracles.py, whose g
    is a congruence mod ell, and a positive is certified."""
    found = oracles.divisor_congruence(t1, t2)
    if found is not None:
        g, ell = found
        moved = (g @ t1.frac().scaled_int(ell) @ g.transpose()).mod(ell)
        assert moved == t2.frac().scaled_int(ell).mod(ell)
    assert d.is_iso == (found is not None)
    if d.is_iso:
        assert_certified(d, t1, t2)


def test_equal_chain_n4_negatives_within_budget():
    # J + uJ against J + J over ell, u a unit outside +-1: equal chains, but
    # Pfaffians that differ beyond sign mod ell, so no congruence exists.
    # The orbit walk of tests/oracles.py needs about 1 s to close an orbit
    # at ell = 7 and 18 s at ell = 12.
    rng = random.Random(89)
    for ell in (7, 8, 9, 10, 12):
        u = next(x for x in range(2, ell - 1) if gcd(x, ell) == 1)
        t1 = transported(rng, skew_blocks(Fraction(1, ell), Fraction(1, ell)))
        t2 = transported(rng, skew_blocks(Fraction(1, ell), Fraction(u, ell)))
        pf1, pf2 = pfaffian_mod(t1, ell), pfaffian_mod(t2, ell)
        assert pf2 not in (pf1, -pf1 % ell)
        assert timed_decide(t1, t2).status is IsoStatus.NOT_ISO
        assert timed_decide(t2, t1).status is IsoStatus.NOT_ISO
        t3 = transported(rng, t2)
        assert_certified(timed_decide(t2, t3), t2, t3)


def test_n6_unit_class_negative_within_budget():
    # J + J + J against J + J + 2J over 5: the orbit walk passes a million
    # states (31 s) without an answer.  Pfaffians 1 and 2 differ beyond sign
    # mod 5.
    rng = random.Random(101)
    t1 = skew_blocks(*[Fraction(1, 5)] * 3)
    t2 = skew_blocks(Fraction(1, 5), Fraction(1, 5), Fraction(2, 5))
    assert (pfaffian_mod(t1, 5), pfaffian_mod(t2, 5)) == (1, 2)
    assert timed_decide(t1, t2).status is IsoStatus.NOT_ISO
    assert timed_decide(transported(rng, t1), transported(rng, t2)).status \
        is IsoStatus.NOT_ISO


def test_n6_long_word_positive_within_budget():
    # the orbit walk needs 3.2 s on an n = 6 positive built with a word of
    # length 32
    rng = random.Random(103)
    t1 = skew_blocks(Fraction(1, 5), Fraction(1, 5), Fraction(2, 5))
    for _ in range(3):
        t2 = transported(rng, t1, word_length=32)
        assert_certified(timed_decide(t1, t2), t1, t2)


def form_from_state_index(index, n, ell):
    """The skew form over ell whose packed upper triangle has the base-ell
    digits of `index` (the digit order of oracles.orbit_labels)."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        index, digit = divmod(index, ell)
        m[i][j] = Fraction(digit, ell)
        m[j][i] = -m[i][j]
    return SkewRatForm(m)


def test_iso_agrees_with_walk_orbits_on_every_n4_orbit():
    # every GL(4, Z)-orbit mod ell <= 8, closed under the walk's generators:
    # each representative against every other, and against random members
    # of its own orbit.  ell = 8 has unit classes mod p^c with c = 3.
    rng = np.random.default_rng(107)
    for ell in range(2, 9):
        labels = oracles.orbit_labels(4, ell)
        reps = [int(r) for r in np.unique(labels)]
        forms = [form_from_state_index(r, 4, ell) for r in reps]
        for i, ti in enumerate(forms):
            for j, tj in enumerate(forms):
                assert iso_decide(params(ti), params(tj)).is_iso == (i == j)
            for member in rng.choice(np.flatnonzero(labels == reps[i]), 4):
                tm = form_from_state_index(int(member), 4, ell)
                assert_certified(iso_decide(params(ti), params(tm)), ti, tm)


def test_iso_agrees_with_walk_on_random_pairs():
    # positives transported by short words up to ell = 12; negatives only
    # where the walk closes an orbit within its state cap (a fraction of a
    # second).  The divisor route of tests/oracles.py decides every pair too,
    # and also equal chains with unit classes mod C > 2 at n = 4 and 6, where
    # the walk does not close
    rng = random.Random(109)
    cap = 15000
    counts = {True: 0, False: 0}
    for trial in range(90):
        n = (3, 4, 4, 5)[trial % 4]
        ell = rng.choice((2, 3, 4, 5, 6, 7, 8, 9, 10, 12) if n < 5 else (2, 3, 4))
        t1 = oracles.random_skew_rat(rng, n, max_den=ell, max_num=2 * ell)
        if trial % 3 == 0:
            t2 = transported(rng, t1, word_length=rng.randint(1, 4))
        elif trial % 3 == 1:
            # equal chains: the normal form with its last block scaled by a
            # unit mod that block's denominator
            nf = normal_form(t1)
            blocks = list(nf.blocks)
            if blocks:
                q, p = blocks[-1]
                u = rng.choice([u for u in (2, 3, 5, 7, 11, 13) if gcd(u, q) == 1])
                blocks[-1] = (q, p * u)
            t2 = transported(rng, oracles.block_normal_form(blocks, n), word_length=4)
        else:
            t2 = oracles.random_skew_rat(rng, n, max_den=ell, max_num=2 * ell)
        d = iso_decide(params(t1), params(t2))
        assert_divisor_route_agrees(d, t1, t2)
        f1, f2 = t1.frac(), t2.frac()
        found, _ = oracles.congruence_search(f1, f2, lcm(f1.ell, f2.ell), cap)
        if found is None:
            continue
        assert d.is_iso == found
        counts[found] += 1
    assert counts[True] >= 30 and counts[False] >= 10, counts
    counts = {True: 0, False: 0}
    for trial in range(80):
        n = (4, 6)[trial % 2]
        qs = [rng.choice((3, 5, 7, 8, 9, 12))]
        while len(qs) < n // 2:
            qs.append(qs[-1] * rng.choice((1, 1, 2)))
        units = [[u for u in range(1, q) if gcd(u, q) == 1] for q in qs]
        blocks = [[(q, rng.choice(us) + q * rng.randint(0, 1)) for q, us in zip(qs, units)]
                  for _ in range(2)]
        t1, t2 = (transported(rng, oracles.block_normal_form(b, n), word_length=8) for b in blocks)
        d = iso_decide(params(t1), params(t2))
        assert_divisor_route_agrees(d, t1, t2)
        counts[d.is_iso] += 1
    assert counts[True] >= 20 and counts[False] >= 20, counts


def test_ell_is_the_largest_chain_denominator():
    # iso_decide compares ell before any normal form because ell is the last
    # q_t of the chain (the q_t > 1), or 1 when the chain is empty
    rng = random.Random(2601)
    for trial in range(300):
        n = rng.randint(1, 6)
        theta = oracles.random_skew_rat(rng, n, max_den=rng.choice((1, 2, 6, 12)), max_num=8)
        theta = SkewRatForm(fraction_matrix(theta) + rand_int_skew(rng, n))
        _, pairs = nctorus._blocks(theta.frac())
        chain = [q for q, _ in pairs if q > 1]
        assert (chain[-1] if chain else 1) == theta.ell
        assert (chain == []) == (theta.ell == 1)


def test_iso_rejects_on_ell_before_any_normal_form(monkeypatch):
    calls = []
    for name in ("symplectic_normal_form", "smith_normal_form"):
        def counted(M, real=getattr(nctorus, name), name=name):
            calls.append(name)
            return real(M)
        monkeypatch.setattr(nctorus, name, counted)
    rng = random.Random(2602)
    rejected = 0
    for trial in range(200):
        n = rng.randint(2, 6)
        t1 = oracles.random_skew_rat(rng, n, max_den=12)
        t2 = transported(rng, oracles.random_skew_rat(rng, n, max_den=12), word_length=4)
        if t1.ell == t2.ell:
            continue
        assert iso_decide(params(t1), params(t2)).status is IsoStatus.NOT_ISO
        rejected += 1
    assert rejected >= 100 and calls == []


def test_q_theta_reads_theta_mod_ell():
    # S and S + ell K give the same q_theta, however large K is
    rng = random.Random(2603)
    for trial in range(60):
        n = rng.randint(1, 5)
        theta = oracles.random_skew_rat(rng, n, max_den=10)
        shift = rand_int_skew(rng, n, bound=10 ** 30)
        shifted = SkewRatForm(fraction_matrix(theta) + shift)
        assert q_theta(shifted) == q_theta(theta)
        assert q_theta(shifted) ** 2 == oracles.stacked_lattice_index(shifted)


def recorded_pairs():
    """3200 seeded pairs for n 2..6: transports, unit-class changes of the
    last block (equal chains) and unrelated forms, with ell mostly equal."""
    rng = random.Random(2604)
    for trial in range(3200):
        n = (2, 3, 4, 4, 5, 6)[trial % 6]
        den = rng.choice((2, 3, 4, 5, 6, 8, 10, 12))
        t1 = oracles.random_skew_rat(rng, n, max_den=den, max_num=2 * den)
        kind = trial % 4
        if kind < 2:
            t2 = transported(rng, t1, word_length=rng.randint(1, 8))
        elif kind == 2:
            blocks = list(normal_form(t1).blocks)
            if blocks:
                q, p = blocks[-1]
                blocks[-1] = (q, p * rng.choice([u for u in (1, 2, 3, 5, 7) if gcd(u, q) == 1]))
            t2 = transported(rng, oracles.block_normal_form(blocks, n), word_length=6)
        else:
            t2 = oracles.random_skew_rat(rng, n, max_den=den, max_num=2 * den)
        yield t1, t2


def recorded_digest():
    """(sha256 of every decision, certificate and q_theta, ISO count)."""
    digest, iso = hashlib.sha256(), 0
    for t1, t2 in recorded_pairs():
        d = iso_decide(params(t1), params(t2))
        iso += d.is_iso
        record = (d.status.value, d.T and d.T.entries, d.shift and d.shift.entries,
                  q_theta(t1), q_theta(t2))
        digest.update(repr(record).encode())
    return digest.hexdigest(), iso


RECORDED_DIGEST = "2f22e3d6321687a33e8101f91a1a131c1f7bb491a85b093355b4845662bf73fa"
RECORDED_ISO = 2449


def test_iso_decide_outputs_match_the_recorded_ones():
    # the digest was recorded with the earlier decision, which compared no
    # ell up front, took Smith forms over Z and lifted through a bal helper:
    # the same answers, certificates (T, shift) and q_theta come out
    assert recorded_digest() == (RECORDED_DIGEST, RECORDED_ISO)


def test_n24_transport_positive():
    # inverse_mod reduces mod ell before its adjugate, so the normal-form
    # rows' size does not reach it; the certificate is checked literally
    rng = random.Random(2605)
    n, ell = 24, 10 ** 6
    upper = [[rng.randrange(ell) if j > i else 0 for j in range(n)] for i in range(n)]
    t1 = SkewRatForm(IntMatrix([[upper[i][j] - upper[j][i] for j in range(n)]
                                for i in range(n)]), ell)
    T = unimodular_sample(n, seed=2606, word_length=3 * n)
    t2 = SkewRatForm(fraction_matrix(t1.congruence(T)) + rand_int_skew(rng, n))
    d = iso_decide(params(t1), params(t2))
    assert_certified(d, t1, t2)


def random_form(rng, n, ell):
    """S / ell for S with upper entries uniform in [0, ell)."""
    upper = [[rng.randrange(ell) if j > i else 0 for j in range(n)] for i in range(n)]
    return SkewRatForm(IntMatrix([[upper[i][j] - upper[j][i] for j in range(n)]
                                  for i in range(n)]), ell)


def decided_within_4x_normal_form(t1, t2):
    # at n = 32 the rows of theta's normal form have ~10^4-bit entries, so
    # iso_decide stays within budget only if the lift reads
    # g = inverse_mod(rows2) @ rows1 on residues mod ell
    start = time.perf_counter()
    normal_form(t1)
    budget = 4 * (time.perf_counter() - start)
    start = time.perf_counter()
    d = iso_decide(params(t1), params(t2))
    elapsed = time.perf_counter() - start
    assert elapsed <= budget, f"iso_decide took {elapsed:.2f} s, 4x normal_form {budget:.2f} s"
    return d


def test_n32_transport_positive_within_4x_normal_form():
    rng = random.Random(3232)
    t1 = random_form(rng, 32, 10 ** 6)
    T = unimodular_sample(32, seed=3233, word_length=96)
    t2 = SkewRatForm(fraction_matrix(t1.congruence(T)) + rand_int_skew(rng, 32))
    assert_certified(decided_within_4x_normal_form(t1, t2), t1, t2)


def test_n32_unit_class_negative_within_4x_normal_form():
    # scaling e1 by 3 keeps the chain mod ell and multiplies the Pfaffian by
    # 3, a unit mod ell outside +-1: another unit class
    rng = random.Random(3234)
    t1 = random_form(rng, 32, 10 ** 6)
    D = IntMatrix([[3 if i == j == 0 else int(i == j) for j in range(32)] for i in range(32)])
    t2 = t1.congruence(D).congruence(unimodular_sample(32, seed=3235, word_length=96))
    assert decided_within_4x_normal_form(t1, t2).status is IsoStatus.NOT_ISO
