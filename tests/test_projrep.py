import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np
import oracles
import pytest

from flattori import projrep
from flattori.autofactor import AffinePhase, GenPermPhaseMatrix
from flattori.cyclotomic import CycElt
from flattori.exact_linalg import IntMatrix, SkewRatForm
from flattori.nctorus import bundle_of, clock_shift_rep, normal_form, q_theta
from flattori.projrep import (
    REP_DIM_LIMIT,
    ProjectiveRep,
    commutant_dim,
    heisenberg_rep,
    intertwiner,
)
from flattori.projrep import (
    _clock_shift_rep,
    _det_mod,
    _fp_root,
    _hom_basis,
    _hom_dim,
    _verify_intertwiner,
)
from oracles import (
    cyc_det,
    cyc_det_nonzero,
    cyc_from_phase,
    cyc_intertwines,
    cyc_mul,
    cyc_one,
    cyc_sub,
    exponent_view,
    monomial_solutions,
    radical,
    scalar_mul,
    sparse_rref,
)


def skew2(x):
    return SkewRatForm([[0, Fraction(x)], [-Fraction(x), 0]])


def blocks4(a, b):
    z = Fraction(0)
    a, b = Fraction(a), Fraction(b)
    return SkewRatForm([
        [z, z, a, z],
        [z, z, z, b],
        [-a, z, z, z],
        [z, -b, z, z],
    ])


def test_radical_examples():
    chi = SkewRatForm([[0, 0], [0, 0]])
    _, index = radical(chi)
    assert index == 1

    theta = skew2(Fraction(2, 5))
    basis, index = radical(theta.frac())
    assert index == 25
    for b in basis:
        assert all(b[i][0] % 5 == 0 for i in range(2))
    # brute force: residues h mod 5 with (2/5)h = 0 mod 1
    count = sum(1 for h in product(range(5), repeat=2)
                if (Fraction(2, 5) * h[1]) % 1 == 0 and (Fraction(2, 5) * h[0]) % 1 == 0)
    assert index == 25 // count


def test_radical_index_agrees_with_fraction_reference():
    # the index of the radical of theta mod Z, against the Fraction matrix
    # theta mod 1; it is unchanged by an integer shift
    rng = random.Random(43)
    for trial in range(360):
        n = 1 + trial % 6
        max_den = 1 + (trial // 6) % 12
        theta = oracles.random_skew_rat(rng, n, max_den=max_den, max_num=30)
        index = oracles.fraction_radical_index(
            [[x % 1 for x in row] for row in oracles.fraction_matrix(theta).entries])
        shift = IntMatrix([[rng.randint(-4, 4) if j > i else 0 for j in range(n)]
                           for i in range(n)])
        shifted = SkewRatForm(oracles.fraction_matrix(theta) + shift - shift.transpose())
        for form in (theta, shifted, theta.frac()):
            assert radical(form)[1] == index
        if theta.ell ** n <= 4096:
            assert index == oracles.brute_force_lattice_index(theta)


def test_representation_bicharacter_is_frac_of_theta():
    rng = random.Random(44)
    for q1, q2 in [(1, 1), (2, 1), (3, 1), (2, 4), (3, 6), (5, 5)]:
        p1, p2 = (rng.choice([-1, 1]) * rng.randint(1, 2 * q) for q in (q1, q2))
        for n in (4, 5):
            theta = _as_normal_form([Fraction(p1, q1), Fraction(p2, q2)], n)
            assert heisenberg_rep(theta).cocycle == theta.frac()
    for trial in range(60):
        n = 1 + trial % 4
        theta = oracles.random_skew_rat(rng, n, max_den=1 + trial % 6, max_num=20)
        assert bundle_of(theta)[2].cocycle == theta.frac()


def _clock_shift(q, p):
    """Clock U = diag(e(p j / q)) and shift V e_j = e_(j-1): the rows (0, 1)
    and (1, 0) of `_clock_shift_rep` on the block p/q, V U = e(p/q) U V."""
    return _clock_shift_rep(SkewRatForm([[0, -p], [p, 0]], q), [(q, p)], [(0, 1), (1, 0)]).gens


def test_clock_shift():
    U1, V1 = _clock_shift(1, 0)
    assert U1 == oracles.identity_matrix(1) and V1 == oracles.identity_matrix(1)
    U, V = _clock_shift(3, 1)
    scal = AffinePhase((), Fraction(1, 3))
    assert V @ U == scalar_mul(U @ V, scal)
    # q-torsion of clock and shift
    assert oracles.matrix_power(U, 3) == oracles.identity_matrix(3)
    assert oracles.matrix_power(V, 3) == oracles.identity_matrix(3)
    with pytest.raises(ValueError):
        _clock_shift(0, 1)


def test_heisenberg_trivial():
    theta = SkewRatForm([[0, 0], [0, 0]])
    rep = heisenberg_rep(theta)
    assert rep.dim == 1
    assert all(g == oracles.identity_matrix(1) for g in rep.gens)


def test_heisenberg_third():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    assert rep.dim == 3
    U, V = _clock_shift(3, 1)
    assert rep.gens == (V, U)


def test_heisenberg_blocks_dimension():
    rep = heisenberg_rep(blocks4(Fraction(1, 2), Fraction(1, 3)))
    assert rep.dim == 6
    _, index = radical(rep.cocycle)
    assert rep.dim ** 2 == index


def test_heisenberg_rejects_non_normal_form():
    bad = SkewRatForm([
        [0, Fraction(1, 2), Fraction(1, 3), 0],
        [Fraction(-1, 2), 0, 0, 0],
        [Fraction(-1, 3), 0, 0, 0],
        [0, 0, 0, 0],
    ])
    with pytest.raises(ValueError):
        heisenberg_rep(bad)


def test_heisenberg_radical_directions_trivial():
    theta = SkewRatForm([
        [0, Fraction(1, 2), 0],
        [Fraction(-1, 2), 0, 0],
        [0, 0, 0],
    ])
    rep = heisenberg_rep(theta)
    assert rep.dim == 2
    assert rep.gens[2] == oracles.identity_matrix(2)


def _chain_norm_forms(max_prod):
    """Block normal forms with prod(q_i) <= max_prod, q_i >= 2."""
    out = []
    for q1 in range(2, max_prod + 1):
        for p1 in (1, q1 - 1):
            if q1 == 2 and p1 != 1:
                continue
            out.append([Fraction(p1, q1)])
    for q1 in range(2, max_prod + 1):
        for q2 in range(q1, max_prod + 1):
            if q1 * q2 <= max_prod:
                out.append([Fraction(1, q1), Fraction(1, q2)])
    return out


def _as_normal_form(blocks, n=None):
    return oracles.block_normal_form([(b.denominator, b.numerator) for b in blocks], n)


def test_heisenberg_commutation_exact():
    for blocks in _chain_norm_forms(8):
        theta = _as_normal_form(blocks)
        rep = heisenberg_rep(theta)  # the constructor verifies commutation
        assert rep.dim == np.prod([b.denominator for b in blocks])


def _divisor_chains(top):
    """Every block denominator chain d1 | d2 | ... (each >= 2) with product
    <= top."""
    chains = []

    def extend(chain, size):
        for d in range(chain[-1] if chain else 2, top // size + 1):
            if not chain or d % chain[-1] == 0:
                chains.append(chain + [d])
                extend(chain + [d], size * d)

    extend([], 1)
    return chains


def test_clock_shift_words_match_kron_power_reference():
    rng = random.Random(29)
    chains = _divisor_chains(24)
    assert [2, 2, 6] in chains and [2, 2, 2, 2] in chains and len(chains) == 36
    for chain in chains:
        pairs = []
        for q in chain:
            p = rng.randrange(1, q)
            while gcd(p, q) != 1:
                p = rng.randrange(1, q)
            pairs.append((q, p))
        for free in (0, 1, 2):
            n = 2 * len(chain) + free
            theta = oracles.block_normal_form(pairs, n)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            assert heisenberg_rep(theta).gens == tuple(oracles.kron_power_words(pairs, ident))
        # arbitrary integer rows, negative and beyond the block orders
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(3)]
        theta = oracles.block_normal_form(pairs, n).congruence(IntMatrix(rows))
        assert _clock_shift_rep(theta, pairs, rows).gens == \
            tuple(oracles.kron_power_words(pairs, rows))
    # clock_shift with gcd(p, q) > 1, negative p and p >= q
    for q, p in ((6, 4), (12, 9), (5, -2), (4, -6), (3, 7), (8, 8), (1, 5)):
        assert _clock_shift(q, p) == oracles.literal_clock_shift(q, p), (q, p)


def test_clock_shift_rep_stores_the_phase_order():
    # the constructor's reading of the built images gives the stored L and
    # words back, also for pairs not in lowest terms and rows that are not
    # unimodular, where the phases have a smaller order than lcm(ell, q_t)
    for q, p in ((6, 4), (12, 9), (4, -6), (8, 8)):
        rep = _clock_shift_rep(SkewRatForm([[0, -p], [p, 0]], q), [(q, p)], [(0, 1), (1, 0)])
        again = ProjectiveRep(rep.gens, rep.cocycle)
        assert (again.L, again.exponents) == (rep.L, rep.exponents), (q, p)
    assert [_clock_shift_rep(SkewRatForm([[0, -p], [p, 0]], q), [(q, p)],
                             [(0, 1), (1, 0)]).L for q, p in ((6, 4), (12, 9), (4, -6))] == [3, 4, 2]
    rng = random.Random(2903)
    moved = 0
    for trial in range(200):
        pairs = [(q, rng.randint(-2 * q, 2 * q)) for q in rng.sample(range(1, 9), rng.randint(1, 2))]
        n = 2 * len(pairs) + rng.randrange(2)
        scale = rng.choice((1, 2, 3))
        rows = [[scale * rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        theta = oracles.block_normal_form(pairs, n).congruence(IntMatrix(rows))
        rep = _clock_shift_rep(theta, pairs, rows)
        again = ProjectiveRep(rep.gens, rep.cocycle)
        assert (again.L, again.exponents) == (rep.L, rep.exponents)
        moved += rep.L != lcm(theta.ell, *(q for q, _ in pairs))
    assert moved > 50


def test_builders_refuse_a_dimension_above_the_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator was built")

    # the check comes before any generator or phase is built
    monkeypatch.setattr(projrep, "_matrix", refuse)
    monkeypatch.setattr(projrep, "_phase", refuse)
    big = oracles.block_normal_form([(101, 1), (103, 2)])
    moved = big.congruence(oracles.unimodular_sample(4, seed=5, word_length=12))
    # the refusal names the dimension it would build: the block (20000, 2)
    # is 20000 wide although q_theta of 2/20000 is 10000
    for build, dim in ((lambda: _clock_shift(REP_DIM_LIMIT + 1, 1), REP_DIM_LIMIT + 1),
                       (lambda: _clock_shift(2 * REP_DIM_LIMIT, 2), 2 * REP_DIM_LIMIT),
                       (lambda: heisenberg_rep(skew2(Fraction(1, 10007))), 10007),
                       (lambda: heisenberg_rep(big), 101 * 103),
                       (lambda: bundle_of(moved), 101 * 103)):
        with pytest.raises(ValueError, match=f"^dimension {dim} exceeds the rep limit {REP_DIM_LIMIT}$"):
            build()
    monkeypatch.undo()
    assert len(_clock_shift(REP_DIM_LIMIT, 1)[0].perm) == REP_DIM_LIMIT


def test_commutant_dim_trivial():
    rep = heisenberg_rep(SkewRatForm([[0, 0], [0, 0]]))
    assert commutant_dim(rep) == 1


def numpy_commutant_dim(rep, rep2=None):
    """Independent oracle: SVD rank of the stacked complex system
    X U1 = U2 X, with U2 = U1 unless a second rep is given."""
    d = rep.dim
    eye = np.eye(d)
    blocks = []
    for g, g2 in zip(rep.gens, (rep2 or rep).gens):
        U, U2 = oracles.matrix_complex(g), oracles.matrix_complex(g2)
        blocks.append(np.kron(U.T, eye) - np.kron(eye, U2))
    A = np.vstack(blocks)
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > 1e-9))
    return d * d - rank


def rref_intertwiner_dim(rep1, rep2):
    """Reference: dim {X : X U1 = U2 X} by sparse Gaussian elimination over
    Q(zeta_L), one equation u1_c X[r, perm1(c)] = u2_inv2(r) X[inv2(r), c]
    per entry and generator."""
    d = rep1.dim
    L = lcm(rep1.L, rep2.L)
    rows = []
    for g1, g2 in zip(rep1.gens, rep2.gens):
        inv2 = [0] * d
        for j, p in enumerate(g2.perm):
            inv2[p] = j
        u1 = [cyc_from_phase(ph.const, L) for ph in g1.phases]
        u2 = [cyc_from_phase(ph.const, L) for ph in g2.phases]
        for r in range(d):
            for c in range(d):
                row = {r * d + g1.perm[c]: u1[c]}
                v2 = inv2[r] * d + c
                row[v2] = cyc_sub(row.get(v2, CycElt.zero(L)), u2[inv2[r]])
                rows.append(row)
    pivots, _ = sparse_rref(rows, d * d, L)
    return d * d - len(pivots)


def monomial_dim(rep1, rep2):
    """dim Hom(rep1, rep2) from the library's per-orbit solver; its count and
    its basis agree."""
    L = lcm(rep1.L, rep2.L)
    view1, view2 = exponent_view(rep1.gens, L), exponent_view(rep2.gens, L)
    dim = _hom_dim(view1, view2, rep1.dim, L)
    assert len(_hom_basis(view1, view2, rep1.dim, L)) == dim
    return dim


def checked_intertwiner(rep1, rep2):
    """intertwiner, with every X it returns checked by the literal Q(zeta_L)
    references: it intertwines, and its field determinant is nonzero."""
    X = intertwiner(rep1, rep2)
    if X is not None:
        assert cyc_intertwines(X, rep1, rep2, lcm(rep1.L, rep2.L))
        assert not X or cyc_det_nonzero(X)
    return X


def test_commutant_dim_irreducible():
    for blocks in _chain_norm_forms(12):
        theta = _as_normal_form(blocks)
        rep = heisenberg_rep(theta)
        if rep.dim > 12:
            continue
        assert commutant_dim(rep) == 1
        assert numpy_commutant_dim(rep) == 1


def test_commutant_dim_direct_sum():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    two = oracles.rep_direct_sum(rep, rep)
    assert commutant_dim(two) == 4
    assert numpy_commutant_dim(two) == 4
    three = oracles.rep_direct_sum(two, rep)
    assert commutant_dim(three) == rref_intertwiner_dim(three, three) == 9
    assert numpy_commutant_dim(three) == 9


@pytest.mark.parametrize("phase, equivalent", [
    (Fraction(1, 6), False), (Fraction(1, 2), False), (Fraction(1, 3), True)])
def test_scalar_twist_of_clock(phase, equivalent):
    # e(phase) U has the spectrum of U exactly when phase is a multiple of 1/3
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    V, U = rep.gens
    twist = ProjectiveRep((V, scalar_mul(U, AffinePhase((), phase))), rep.cocycle)
    both = oracles.rep_direct_sum(rep, twist)
    want = 4 if equivalent else 2
    assert commutant_dim(both) == rref_intertwiner_dim(both, both) == want
    assert numpy_commutant_dim(both) == want
    assert monomial_dim(rep, twist) == rref_intertwiner_dim(rep, twist) == int(equivalent)
    assert (checked_intertwiner(rep, twist) is not None) == equivalent
    # reducible: no single basis vector of the solution space is invertible
    assert checked_intertwiner(both, oracles.rep_direct_sum(twist, rep)) is not None


def test_random_monomial_conjugations():
    # X = P is an intertwiner of rep and P rep P^-1, unique up to a scalar
    # for an irreducible rep, so the normalized answer is P rescaled
    rng = random.Random(31)
    for blocks in _chain_norm_forms(12):
        rep = heisenberg_rep(_as_normal_form(blocks))
        d = rep.dim
        perm = list(range(d))
        rng.shuffle(perm)
        P = GenPermPhaseMatrix(perm, [AffinePhase((), Fraction(rng.randrange(2 * d), 2 * d))
                                      for _ in range(d)])
        conj = ProjectiveRep([P @ g @ P.inverse() for g in rep.gens], rep.cocycle)
        assert commutant_dim(rep) == rref_intertwiner_dim(rep, rep) == 1
        assert monomial_dim(rep, conj) == rref_intertwiner_dim(rep, conj) == 1
        assert numpy_commutant_dim(rep, conj) == 1
        assert commutant_dim(oracles.rep_direct_sum(rep, conj)) == 4
        X = checked_intertwiner(rep, conj)
        L = lcm(rep.L, conj.L)
        lead = P.perm.index(0)  # the column of the first nonzero entry of P
        for j in range(d):
            for i in range(d):
                want = (cyc_from_phase(P.phases[j].const - P.phases[lead].const, L)
                        if i == P.perm[j] else CycElt.zero(L))
                assert X[i][j] == want


def test_intertwiner_non_monomial_support():
    # diag(1, -1) and the swap are conjugate by [[1, 1], [1, -1]]: every
    # solution has full columns, so the answer is certified by det = -2 mod p
    flat = SkewRatForm([[0]])
    half = Fraction(1, 2)
    U = GenPermPhaseMatrix((0, 1), [AffinePhase((), 0), AffinePhase((), half)])
    diag = ProjectiveRep([U], flat)
    swap = ProjectiveRep([GenPermPhaseMatrix((1, 0), [AffinePhase((), 0)] * 2)], flat)
    assert monomial_dim(diag, swap) == rref_intertwiner_dim(diag, swap) == 2
    assert commutant_dim(swap) == numpy_commutant_dim(swap) == 2
    one, minus = cyc_one(2), cyc_from_phase(half, 2)
    assert checked_intertwiner(diag, swap) == [[one, one], [one, minus]]
    p, g = _fp_root(2, 2)
    assert _det_mod({0: (1, 0), 1: (1, 0), 2: (1, 0), 3: (1, 1)}, 2, 2, p, g) == -2 % p


def test_verify_intertwiner_rejects_non_solutions():
    # candidates are {r d + c: (w, e)} for X[r, c] = w zeta^e, zeros elsewhere
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    L = rep.L
    view = exponent_view(rep.gens, L)
    _verify_intertwiner({0: (1, 0), 4: (1, 0), 8: (1, 0)}, view, view, 3, L)
    _verify_intertwiner({0: (5, 2), 4: (5, 2), 8: (5, 2)}, view, view, 3, L)
    # diag(1, 1, zeta): commutes with the clock U but not with the shift V
    with pytest.raises(AssertionError):
        _verify_intertwiner({0: (1, 0), 4: (1, 0), 8: (1, 1)}, view, view, 3, L)
    # diag(1, 1, 2): the same, through a weight
    with pytest.raises(AssertionError):
        _verify_intertwiner({0: (1, 0), 4: (1, 0), 8: (2, 0)}, view, view, 3, L)
    # a single nonzero entry: the zero pattern of X U differs from U X
    with pytest.raises(AssertionError):
        _verify_intertwiner({0: (1, 0)}, view, view, 3, L)


def _exponent_verifier_accepts(vec, rep1, rep2, L):
    try:
        _verify_intertwiner(vec, exponent_view(rep1.gens, L), exponent_view(rep2.gens, L),
                            rep1.dim, L)
    except AssertionError:
        return False
    return True


def test_exponent_verifier_matches_field_reference():
    # true solutions (every basis vector, and pairwise sums with seeded
    # weights, of the monomial system) and each of them with one entry's
    # exponent shifted and with one entry's weight changed in a component of
    # two or more entries; for the commutant, also the generator images,
    # each of which commutes with some generators and not with its partner
    # in the block
    rng = random.Random(57)
    checked = 0
    for blocks in _chain_norm_forms(12):
        rep = heisenberg_rep(_as_normal_form(blocks))
        d = rep.dim
        perm = list(range(d))
        rng.shuffle(perm)
        P = GenPermPhaseMatrix(perm, [AffinePhase((), Fraction(rng.randrange(2 * d), 2 * d))
                                      for _ in range(d)])
        conj = ProjectiveRep([P @ g @ P.inverse() for g in rep.gens], rep.cocycle)
        for rep1, rep2 in [(rep, conj), (oracles.rep_direct_sum(rep, conj),
                                         oracles.rep_direct_sum(conj, rep)), (rep, rep)]:
            L = lcm(rep1.L, rep2.L)
            size = rep1.dim
            basis = monomial_solutions(exponent_view(rep1.gens, L), exponent_view(rep2.gens, L),
                                       size, L)
            solutions = [({v: (1, e) for v, e in a.items()}, a) for a in basis]
            for i, a in enumerate(basis):
                for b in basis[i + 1:]:
                    wa, wb = rng.randint(1, 2 * size), rng.randint(1, 2 * size)
                    solutions.append(({**{v: (wa, e) for v, e in a.items()},
                                       **{v: (wb, e) for v, e in b.items()}},
                                      a if len(a) > 1 else b))
            cases = [(vec, True) for vec, _ in solutions]
            for vec, comp in solutions:
                v = rng.choice(sorted(vec))
                w, e = vec[v]
                cases.append(({**vec, v: (w, (e + rng.randrange(1, L)) % L)}, False))
                if len(comp) > 1:
                    v = rng.choice(sorted(comp))
                    w, e = vec[v]
                    cases.append(({**vec, v: (w + rng.randint(1, 3), e)}, False))
            if rep2 is rep:
                cases += [({image[c] * d + c: (1, e) for c, e in enumerate(exps)}, False)
                          for image, exps in exponent_view(rep.gens, L)]
            zero = CycElt.zero(L)
            for vec, want in cases:
                X = [[zero] * size for _ in range(size)]
                for v, (w, e) in vec.items():
                    z = cyc_from_phase(Fraction(e, L), L)
                    X[v // size][v % size] = CycElt(L, [w * c for c in z.coeffs])
                assert _exponent_verifier_accepts(vec, rep1, rep2, L) == want
                assert cyc_intertwines(X, rep1, rep2, L) == want
                checked += 1
    assert checked > 500


def test_cyc_det_nonzero_non_monomial():
    # the field reference and the mod-p determinant on {r d + c: (w, e)}
    L = 3
    one, zero = cyc_one(L), CycElt.zero(L)
    z = cyc_from_phase(Fraction(1, 3), L)
    # row 1 is z times row 0
    singular = [[one, z, zero], [z, cyc_mul(z, z), zero], [zero, zero, one]]
    assert not cyc_det_nonzero(singular)
    assert cyc_det_nonzero([[one, z, zero], [z, one, zero], [zero, zero, one]])
    p, g = _fp_root(L, 3)
    assert _det_mod({0: (1, 0), 1: (1, 1), 3: (1, 1), 4: (1, 2), 8: (1, 0)}, 3, L, p, g) == 0
    assert _det_mod({0: (1, 0), 1: (1, 1), 3: (1, 1), 4: (1, 0), 8: (1, 0)}, 3, L, p, g) != 0


def test_intertwiner_self_is_identity():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    X = checked_intertwiner(rep, rep)
    assert X is not None
    L = rep.L
    for r in range(3):
        for c in range(3):
            want = cyc_one(L) if r == c else CycElt.zero(L)
            assert X[r][c] == want


def _conjugate_by_perm(rep, perm):
    P = GenPermPhaseMatrix(perm, [AffinePhase((), 0)] * rep.dim)
    gens = [P @ g @ P.inverse() for g in rep.gens]
    return ProjectiveRep(gens, rep.cocycle), P


def test_intertwiner_recovers_permutation():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    conj, P = _conjugate_by_perm(rep, (1, 2, 0))
    X = checked_intertwiner(rep, conj)
    assert X is not None
    L = rep.L
    expect = [[CycElt.zero(L)] * 3 for _ in range(3)]
    for j in range(3):
        expect[P.perm[j]][j] = cyc_one(L)
    # normalized at the first nonzero entry, the permutation comes back
    lead = next(x for row in X for x in row if any(x.coeffs))
    assert lead == cyc_one(L)
    assert X == expect


def test_intertwiner_errors_on_distinct_bicharacters():
    r1 = heisenberg_rep(skew2(Fraction(1, 3)))
    r2 = heisenberg_rep(skew2(Fraction(1, 5)))
    with pytest.raises(ValueError):
        intertwiner(r1, r2)


def test_intertwiner_errors_name_lattices_before_bicharacters():
    r2 = heisenberg_rep(skew2(Fraction(1, 3)))
    r4 = heisenberg_rep(blocks4(Fraction(1, 3), Fraction(1, 5)))
    with pytest.raises(ValueError, match="representations of different lattices"):
        intertwiner(r2, r4)
    with pytest.raises(ValueError, match="cocycle mismatch: distinct bicharacters"):
        intertwiner(r2, heisenberg_rep(skew2(Fraction(1, 5))))


def _rho_tau():
    """The 1/3 clock/shift pair rho, and tau: rho with U twisted by e(1/6)."""
    rho = heisenberg_rep(skew2(Fraction(1, 3)))
    V, U = rho.gens
    return rho, ProjectiveRep((V, scalar_mul(U, AffinePhase((), Fraction(1, 6)))), rho.cocycle)


def _sum_of(reps):
    out = reps[0]
    for rep in reps[1:]:
        out = oracles.rep_direct_sum(out, rep)
    return out


def test_intertwiner_of_three_summands():
    # the weight-1 sum of the components is singular in both cases, so the
    # answer needs the Hom dimensions and a seeded redraw
    rho, tau = _rho_tau()
    three = _sum_of([rho, rho, rho])
    assert checked_intertwiner(three, three) is not None
    assert checked_intertwiner(_sum_of([rho, rho, tau]), _sum_of([tau, rho, rho])) is not None


def test_intertwiner_decision_matches_numpy_hom_dims():
    # every ordering of 1..4 summands from {rho, tau}, pairwise within each
    # length: X exists exactly when the three Hom dimensions agree
    rho, tau = _rho_tau()
    positives = 0
    for k in range(1, 5):
        reps = [_sum_of(word) for word in product((rho, tau), repeat=k)]
        ends = [numpy_commutant_dim(rep) for rep in reps]
        for i, j in product(range(len(reps)), repeat=2):
            equivalent = ends[i] == numpy_commutant_dim(reps[i], reps[j]) == ends[j]
            assert (checked_intertwiner(reps[i], reps[j]) is not None) == equivalent
            positives += equivalent
    # equivalent exactly when both words hold as many taus: sum_k sum_j C(k, j)^2
    assert positives == 2 + 6 + 20 + 70


def test_fp_root_has_exact_order():
    for L in range(1, 121):
        primes = [r for r in range(2, L + 1) if L % r == 0 and all(r % k for k in range(2, r))]
        for d in (1, 7, 60):
            first, _ = _fp_root(L, d)
            for after in (0, first):
                p, g = _fp_root(L, d, after)
                assert p > max(2 * d, after) and (p - 1) % L == 0
                assert all(p % k for k in range(2, p))
                assert pow(g, L, p) == 1
                assert all(pow(g, L // r, p) != 1 for r in primes)


def test_det_mod_matches_field_determinant():
    # seeded weighted X = (w zeta^e) on random supports, some with a repeated
    # row; the field determinant maps to F_p by zeta_L -> g
    rng = random.Random(19)
    zeros = 0
    for trial in range(300):
        L, d = rng.choice((1, 2, 3, 4, 5, 6, 8, 12)), rng.randint(1, 5)
        vec = {v: (rng.randint(1, 2 * d), rng.randrange(L)) for v in range(d * d)
               if rng.random() < 0.6}
        if d > 1 and trial % 4 == 0:
            vec = {v: x for v, x in vec.items() if v >= d}
            vec.update({v - d: x for v, x in vec.items() if v < 2 * d})
        X = [[CycElt.zero(L)] * d for _ in range(d)]
        for v, (w, e) in vec.items():
            X[v // d][v % d] = CycElt(L, [w * c for c in oracles.power_mod_phi(e, L)])
        det = cyc_det(X)
        p, g = _fp_root(L, d, rng.randrange(200))
        want = sum(c.numerator * pow(c.denominator, -1, p) * pow(g, k, p)
                   for k, c in enumerate(det.coeffs)) % p
        assert _det_mod(vec, d, L, p, g) == want
        zeros += not any(det.coeffs)
    assert 20 < zeros < 280


def test_intertwiner_redraws_at_the_next_prime(monkeypatch):
    # a determinant that reads 0 on the first three draws: the first draw has
    # every weight 1, each redraw takes seeded weights from [1, 2d] at the
    # next prime p = 1 (mod L)
    import flattori.projrep as projrep

    rho, tau = _rho_tau()
    rep1, rep2 = _sum_of([rho, rho, tau]), _sum_of([tau, rho, rho])
    draws = []

    def failing(vec, d, L, p, g):
        draws.append((sorted({w for w, _ in vec.values()}), p, L, d))
        return 0 if len(draws) <= 3 else _det_mod(vec, d, L, p, g)

    monkeypatch.setattr(projrep, "_det_mod", failing)
    assert checked_intertwiner(rep1, rep2) is not None
    assert len(draws) == 4 and draws[0][0] == [1]
    primes = [p for _, p, _, _ in draws]
    assert primes == sorted(set(primes))
    for weights, p, L, d in draws:
        assert (p - 1) % L == 0 and p > 2 * d and 1 <= min(weights) <= max(weights) <= 2 * d
    assert any(weights != [1] for weights, _, _, _ in draws[1:])


def test_intertwiner_fast_path_for_one_monomial_component(monkeypatch):
    # a conjugated irreducible: one Hom system (one orbit, one propagation),
    # no determinant, no random draw, and each root of unity reduced once:
    # entries with one exponent share its coefficients
    import flattori.projrep as projrep

    rep = heisenberg_rep(blocks4(Fraction(1, 2), Fraction(1, 4)))
    conj, _ = _conjugate_by_perm(rep, tuple(range(1, rep.dim)) + (0,))
    propagations = []
    closing = projrep._closing

    def counted(*args):
        propagations.append(args)
        return closing(*args)

    def refuse(*args):
        raise AssertionError("the fast path drew or eliminated")

    monkeypatch.setattr(projrep, "_closing", counted)
    monkeypatch.setattr(projrep, "_det_mod", refuse)
    monkeypatch.setattr(projrep.random, "Random", refuse)
    X = intertwiner(rep, conj)
    assert len(propagations) == 1
    L = lcm(rep.L, conj.L)
    roots, shared = {cyc_from_phase(Fraction(k, L), L) for k in range(L)}, {}
    for x in (x for row in X for x in row if any(x.coeffs)):
        assert x in roots and shared.setdefault(x.coeffs, x.coeffs) is x.coeffs


def _twisted(rep, rng):
    """rep with each generator scaled by a seeded character value e(k/12)."""
    return ProjectiveRep([scalar_mul(g, AffinePhase((), Fraction(rng.randrange(12), 12)))
                          for g in rep.gens], rep.cocycle)


def _conjugated(rep, rng):
    """P rep P^-1 for a seeded generalized permutation-phase matrix P."""
    d = rep.dim
    perm = list(range(d))
    rng.shuffle(perm)
    P = GenPermPhaseMatrix(perm, [AffinePhase((), Fraction(rng.randrange(2 * d), 2 * d))
                                  for _ in range(d)])
    return ProjectiveRep([P @ g @ P.inverse() for g in rep.gens], rep.cocycle)


def _cycle_types(rep):
    """The sorted cycle lengths of each generator's permutation."""
    types = []
    for perm, _ in rep.exponents:
        seen, lengths = set(), []
        for s in range(rep.dim):
            k, c = 0, s
            while c not in seen:
                seen.add(c)
                c, k = perm[c], k + 1
            if k:
                lengths.append(k)
        types.append(sorted(lengths))
    return types


def _rotated_sum(theta, base, summands, rng):
    """P (the direct sum of the summands, character twists of
    base = clock_shift_rep(theta, normal_form(theta)), each turned) P^-1 for
    a seeded P: the twist of base's rows turned in a nonempty seeded set of
    blocks t, (shift, clock) exponents (a, b) to (b, -a).  The bicharacter
    is unchanged, and where a generator's shift turns into a clock its
    permutation changes cycle type."""
    nf = normal_form(theta)
    k = len(nf.blocks)
    turn = [t for t in range(k) if rng.random() < 0.5] or [rng.randrange(k)]
    rows = [list(r) for r in nf.T.inverse_unimodular().entries]
    for r in rows:
        for t in turn:
            r[t], r[k + t] = r[k + t], -r[t]
    turned = _clock_shift_rep(theta, nf.blocks, rows).gens
    # a twist scales every entry of a generator, so column 0 reads it
    twisted = [ProjectiveRep([scalar_mul(g, AffinePhase((), Fraction(e[0], s.L)
                                                        - Fraction(e0[0], base.L)))
                              for g, (_, e), (_, e0) in zip(turned, s.exponents, base.exponents)],
                             base.cocycle)
               for s in summands]
    return _conjugated(_sum_of(twisted), rng)


def test_hom_solver_matches_the_d2_oracle_on_seeded_multi_orbit_pairs(monkeypatch):
    # 400 pairs: each rep a conjugated direct sum of 1-3 character twists of
    # clock_shift_rep(theta, normal_form(theta)), n 1-4 and q_theta <= 8, so
    # d <= 24; the second sums the same summands shuffled, sometimes twisted
    # again.  The per-orbit solver returns the d^2 system's components, in
    # its order and normalization, and counts them.  Each first rep with
    # q_theta > 1 is also paired both ways with a sum of the same dimension
    # over rotated rows (`_rotated_sum`), whose permutations mostly have
    # other cycle types and whose Hom spaces have full, not monomial, support
    powers = []
    power = projrep._power

    def counted(perm, e, m):
        powers.append(m)
        return power(perm, e, m)

    monkeypatch.setattr(projrep, "_power", counted)
    rng, cross = random.Random(2901), random.Random(2902)
    pairs = multi_orbit = other_types = full_support = 0
    while pairs < 400:
        n = rng.randint(1, 4)
        theta = oracles.random_skew_rat(rng, n, max_den=rng.randint(1, 6), max_num=6)
        if q_theta(theta) > 8:
            continue
        base = clock_shift_rep(theta, normal_form(theta))
        summands = [_twisted(base, rng) if rng.random() < 0.6 else base
                    for _ in range(rng.randint(1, 3))]
        rep1 = _conjugated(_sum_of(summands), rng)
        rng.shuffle(summands)
        rep2 = _sum_of(summands)
        rep2 = _conjugated(_twisted(rep2, rng) if rng.random() < 0.3 else rep2, rng)
        checks = [(rep1, rep1), (rep1, rep2), (rep2, rep2)]
        if base.dim > 1:
            rep3 = _rotated_sum(theta, base, summands, cross)
            checks += [(rep1, rep3), (rep3, rep1), (rep3, rep3)]
            other_types += _cycle_types(rep1) != _cycle_types(rep3)
        for a, b in checks:
            L = lcm(a.L, b.L)
            view1, view2 = exponent_view(a.gens, L), exponent_view(b.gens, L)
            want = monomial_solutions(view1, view2, a.dim, L)
            assert _hom_basis(view1, view2, a.dim, L) == want
            assert _hom_dim(view1, view2, a.dim, L) == len(want)
            # a component with two entries in one column of X
            full_support += any(len({v % a.dim for v in c}) < len(c) for c in want)
        multi_orbit += len(projrep._hom_slices(rep1.exponents, rep1.exponents, rep1.dim,
                                               rep1.L)) > 1
        pairs += 1
    # most reps have several orbits, and stabilizer vectors with a_j != 0
    # need the inverse powers of the path's words
    assert multi_orbit > 200
    assert sum(m < 0 for m in powers) > 100
    # and the turned sums change cycle types and reach full support
    assert other_types > 100
    assert full_support > 100


def test_hom_at_large_dimension():
    # blocks 1/60 and 1/60: d = 3600, where the d^2 system has 13 million
    # unknowns; an irreducible has a one-dimensional commutant
    rep = heisenberg_rep(blocks4(Fraction(1, 60), Fraction(1, 60)))
    assert rep.dim == 3600 and commutant_dim(rep) == 1
    # d = 900: the intertwiner of a copy conjugated by a permutation P
    # intertwines over Q(zeta_L) and has entry 1 wherever P has; Hom is one
    # dimensional, so X is P
    rep = heisenberg_rep(blocks4(Fraction(1, 30), Fraction(1, 30)))
    perm = list(range(rep.dim))
    random.Random(2904).shuffle(perm)
    conj, P = _conjugate_by_perm(rep, perm)
    X = intertwiner(rep, conj)
    assert cyc_intertwines(X, rep, conj, lcm(rep.L, conj.L))
    assert all(X[P.perm[j]][j] == cyc_one(rep.L) for j in range(rep.dim))


def test_intertwiner_at_a_large_phase_order_reduces_only_its_roots():
    # U = the swap with phases (e(1/L), e(2/L)) on Z, and its copy under
    # P = diag(1, e(-1/L)): each Hom space has two components, so X is
    # their sum, and its entries z^(L-2) and z^(L-1) take both branches of
    # the reduction by Phi_L when L is prime.  The entries match the
    # oracle's reduction over Q, and nothing the calls reduced stays
    # allocated after them.
    for L in (1009, 3001):
        def z(k):
            return cyc_from_phase(Fraction(k, L), L)

        rep = ProjectiveRep([GenPermPhaseMatrix((1, 0), [AffinePhase((), Fraction(1, L)),
                                                          AffinePhase((), Fraction(2, L))])],
                            SkewRatForm([[0]]))
        P = GenPermPhaseMatrix((0, 1), [AffinePhase((), 0), AffinePhase((), Fraction(L - 1, L))])
        conj = ProjectiveRep([P @ g @ P.inverse() for g in rep.gens], rep.cocycle)
        want = ([[z(0), z(0)], [z(L - 1), z(0)]], [[z(0), z(0)], [z(L - 2), z(L - 1)]])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = (intertwiner(rep, rep), intertwiner(rep, conj))
            assert got == want, L
            del got
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 * 2 ** 20, (L, kept)


def test_intertwiner_exists_for_equal_cocycle_pairs():
    for blocks in _chain_norm_forms(8):
        theta = _as_normal_form(blocks)
        rep = heisenberg_rep(theta)
        if rep.dim > 8:
            continue
        perm = tuple(range(1, rep.dim)) + (0,)
        conj, _ = _conjugate_by_perm(rep, perm)
        assert checked_intertwiner(rep, conj) is not None


def test_projective_rep_rejects_wrong_commutation():
    U, V = _clock_shift(3, 1)
    with pytest.raises(ValueError):
        ProjectiveRep((V, U), skew2(Fraction(2, 3)))


def test_projective_rep_rejects_non_constant_phases():
    # the corner phase e(-s) of the Rieffel matrix depends on the point
    with pytest.raises(ValueError):
        ProjectiveRep([oracles.rieffel_N(3, 1)], SkewRatForm([[0]]))


def test_projective_rep_rejection_names_pair_column_and_exponents():
    U, V = _clock_shift(3, 1)
    prefix = "generator images do not realize the cocycle's commutation relations: "
    # V U = e(1/3) U V, so the cocycle of 2/3 fails at its first column
    with pytest.raises(ValueError) as exc:
        ProjectiveRep((V, U), SkewRatForm([[0, 2], [-2, 0]], 3))
    assert str(exc.value) == prefix + (
        "at (j, i) = (1, 0), column 0: U_1 U_0 has row 2, exponent 2; "
        "chi(e_1, e_0) U_0 U_1 has row 2, exponent 1 (mod L = 3)")
    # a clock with two perm entries swapped sends column 0 to different rows
    W = GenPermPhaseMatrix((0, 2, 1), U.phases)
    with pytest.raises(ValueError) as exc:
        ProjectiveRep((V, W), SkewRatForm([[0, 0], [0, 0]]))
    assert str(exc.value) == prefix + (
        "at (j, i) = (1, 0), column 0: U_1 U_0 has row 1, exponent 2; "
        "chi(e_1, e_0) U_0 U_1 has row 2, exponent 0 (mod L = 3)")


def _exponent_check_accepts(gens, cocycle, accepted=None):
    """Whether ProjectiveRep accepts the input; an accepted rep keeps L, the
    lcm of its phase denominators, and the exponent view over that L, and
    is appended to `accepted` when given."""
    try:
        rep = ProjectiveRep(gens, cocycle)
    except ValueError as exc:
        assert "commutation relations" in str(exc)
        return False
    assert rep.L == lcm(1, *(ph.const.denominator for g in gens for ph in g.phases))
    assert rep.exponents == exponent_view(gens, rep.L)
    if accepted is not None:
        accepted.append(rep)
    return True


def _commutation_inputs(rng):
    """Seeded valid (generators, cocycle) pairs: block normal forms with
    q_theta 2..24 and free directions, bundle_of reps of transported forms,
    conjugated copies and direct sums."""
    reps = []
    for chain in _divisor_chains(24):
        ps = []
        for q in chain:
            p = rng.randrange(1, q)
            while gcd(p, q) != 1:
                p = rng.randrange(1, q)
            ps.append(Fraction(p, q))
        reps.append(heisenberg_rep(_as_normal_form(ps, 2 * len(chain) + rng.randrange(3))))
    for trial in range(80):
        n = 2 + trial % 4
        theta = oracles.random_skew_rat(rng, n, max_den=6, max_num=6)
        theta = theta.congruence(oracles.unimodular_sample(n, 6100 + trial, 8))
        if q_theta(theta) <= 24:
            reps.append(bundle_of(theta)[2])
    for rep in list(reps):
        d = rep.dim
        perm = list(range(d))
        rng.shuffle(perm)
        P = GenPermPhaseMatrix(perm, [AffinePhase((), Fraction(rng.randrange(2 * d), 2 * d))
                                      for _ in range(d)])
        conj = ProjectiveRep([P @ g @ P.inverse() for g in rep.gens], rep.cocycle)
        reps += [conj, oracles.rep_direct_sum(rep, conj)]
    return [(rep.gens, rep.cocycle) for rep in reps]


def test_exponent_commutation_check_matches_matrix_oracle():
    # valid inputs, and each corrupted three ways: one clock phase shifted by
    # 1/(2q), two perm entries of one generator swapped, one cocycle entry
    # changed; the exponent check and the matrix products agree on every one
    rng = random.Random(1818)
    verdicts = {True: 0, False: 0}
    accepted = []
    for gens, cocycle in _commutation_inputs(rng):
        assert _exponent_check_accepts(gens, cocycle, accepted)
        assert oracles.matrix_commutation_holds(gens, cocycle)
        d, n = gens[0].size, len(gens)
        cases = []
        j, c = rng.randrange(n), rng.randrange(d)
        shifted = list(gens[j].phases)
        shifted[c] = shifted[c] + AffinePhase((), Fraction(1, 2 * d))
        cases.append((gens[:j] + (GenPermPhaseMatrix(gens[j].perm, shifted),) + gens[j + 1:],
                      cocycle))
        if d > 1:
            j = rng.randrange(n)
            a, b = rng.sample(range(d), 2)
            perm = list(gens[j].perm)
            perm[a], perm[b] = perm[b], perm[a]
            cases.append((gens[:j] + (GenPermPhaseMatrix(perm, gens[j].phases),) + gens[j + 1:],
                          cocycle))
        if n > 1:
            # the entry moves by 1/ell, or by 1/(2 ell) past the phases' denominators
            i, k = sorted(rng.sample(range(n), 2))
            for scale in (1, 2):
                S = [[x * scale for x in row] for row in cocycle.S.entries]
                S[i][k] += 1
                S[k][i] -= 1
                cases.append((gens, SkewRatForm(S, scale * cocycle.ell)))
        for bad_gens, bad_cocycle in cases:
            want = oracles.matrix_commutation_holds(bad_gens, bad_cocycle)
            assert _exponent_check_accepts(bad_gens, bad_cocycle, accepted) == want
            verdicts[want] += 1
    assert verdicts == {True: 132, False: 924}
    assert len(accepted) == 270 + 132  # the seeded reps and the accepted corruptions


def test_rep_builders_multiply_no_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rep builder multiplied matrices")

    monkeypatch.setattr(GenPermPhaseMatrix, "__matmul__", refuse)
    for q, p in ((1, 0), (3, 1), (6, 4), (5, -2), (12, 7)):
        assert _clock_shift(q, p) == oracles.literal_clock_shift(q, p)
    for blocks in _chain_norm_forms(12):
        assert heisenberg_rep(_as_normal_form(blocks, 2 * len(blocks) + 1)).dim == \
            np.prod([b.denominator for b in blocks])
    rng = random.Random(77)
    for trial in range(20):
        theta = oracles.random_skew_rat(rng, 2 + trial % 3, max_den=4, max_num=4)
        assert bundle_of(theta)[2].dim == q_theta(theta)
