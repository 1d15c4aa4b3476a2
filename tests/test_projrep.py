import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np
import oracles
import pytest

from flattori.autofactor import AffinePhase, GenPermPhaseMatrix, rieffel_N
from flattori.cyclotomic import CycElt
from flattori.exact_linalg import RatMatrix, SkewRatForm
from flattori.projrep import (
    Bicharacter,
    BilinearCocycle,
    ProjectiveRep,
    bicharacter_of,
    clock_shift,
    cohomologous,
    commutant_dim,
    heisenberg_rep,
    intertwiner,
    radical,
)
from flattori.projrep import (
    _clock_shift_words,
    _cyc_det_nonzero,
    _exponents,
    _monomial_solutions,
    _verify_intertwiner,
)
from oracles import cyc_intertwines, sparse_rref


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


def test_bicharacter_of():
    sym = BilinearCocycle(RatMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 3]]))
    assert all(x == 0 for row in bicharacter_of(sym).mat for x in row)
    theta = skew2(Fraction(1, 3))
    z = BilinearCocycle(theta.upper())
    chi = bicharacter_of(z)
    assert chi.mat[0][1] == Fraction(1, 3)
    assert chi.mat[1][0] == Fraction(2, 3)  # -1/3 mod 1
    for g in [(1, 0), (2, -3), (0, 5)]:
        assert chi.value(g, g) == 0


def test_radical_examples():
    chi = Bicharacter([[0, 0], [0, 0]])
    _, index = radical(chi)
    assert index == 1

    theta = skew2(Fraction(2, 5))
    chi = bicharacter_of(BilinearCocycle(theta.upper()))
    basis, index = radical(chi)
    assert index == 25
    for b in basis:
        assert all(b[i][0] % 5 == 0 for i in range(2))
    # brute force: residues h mod 5 with (2/5)h = 0 mod 1
    count = sum(1 for h in product(range(5), repeat=2)
                if (Fraction(2, 5) * h[1]) % 1 == 0 and (Fraction(2, 5) * h[0]) % 1 == 0)
    assert index == 25 // count


def test_cohomologous_reflexive_and_symmetric_shift():
    z = BilinearCocycle(RatMatrix([[0, Fraction(1, 4)], [0, 0]]))
    w = cohomologous(z, z)
    assert w is not None
    for g1 in [(1, 0), (0, 1), (2, 3)]:
        for g2 in [(1, 1), (-1, 2)]:
            assert w.coboundary(g1, g2) == 0

    s0 = BilinearCocycle(z.B + RatMatrix([[Fraction(1, 3), Fraction(1, 5)],
                                          [Fraction(1, 5), 1]]))
    assert cohomologous(z, s0) is not None


def test_cohomologous_absent():
    z = BilinearCocycle(RatMatrix([[0, Fraction(1, 4)], [0, 0]]))
    skew_shift = BilinearCocycle(z.B + RatMatrix([[0, Fraction(1, 3)],
                                                  [Fraction(-1, 3), 0]]))
    assert cohomologous(z, skew_shift) is None


def test_cohomologous_equivalence_relation():
    rng = random.Random(12)
    corpus = []
    for _ in range(50):
        n = 2
        B = RatMatrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(n)] for _ in range(n)])
        corpus.append(BilinearCocycle(B))
    # reflexive
    for z in corpus[:10]:
        assert cohomologous(z, z) is not None
    # symmetric + transitive (decision = bicharacter equality)
    for i in range(0, 20, 2):
        a, b = corpus[i], corpus[i + 1]
        assert (cohomologous(a, b) is None) == (cohomologous(b, a) is None)
    for i in range(0, 30, 3):
        a, b, c = corpus[i], corpus[i + 1], corpus[i + 2]
        ab = cohomologous(a, b) is not None
        bc = cohomologous(b, c) is not None
        ac = cohomologous(a, c) is not None
        if ab and bc:
            assert ac


def test_clock_shift():
    U1, V1 = clock_shift(1, 0)
    assert U1 == oracles.identity_matrix(1) and V1 == oracles.identity_matrix(1)
    U, V = clock_shift(3, 1)
    scal = AffinePhase((), Fraction(1, 3))
    assert V @ U == (U @ V).scalar_mul(scal)
    # q-torsion of clock and shift
    assert oracles.matrix_power(U, 3) == oracles.identity_matrix(3)
    assert oracles.matrix_power(V, 3) == oracles.identity_matrix(3)
    with pytest.raises(ValueError):
        clock_shift(0, 1)


def test_heisenberg_trivial():
    theta = SkewRatForm([[0, 0], [0, 0]])
    rep = heisenberg_rep(theta)
    assert rep.dim == 1
    assert all(g == oracles.identity_matrix(1) for g in rep.gens)


def test_heisenberg_third():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    assert rep.dim == 3
    U, V = clock_shift(3, 1)
    assert rep.gens == (V, U)


def test_heisenberg_blocks_dimension():
    rep = heisenberg_rep(blocks4(Fraction(1, 2), Fraction(1, 3)))
    assert rep.dim == 6
    _, index = radical(bicharacter_of(rep.cocycle))
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
    k = len(blocks)
    n = 2 * k if n is None else n
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, b in enumerate(blocks):
        m[i][k + i] = b
        m[k + i][i] = -b
    return SkewRatForm(m)


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
            theta = _as_normal_form([Fraction(p, q) for q, p in pairs], n)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            assert heisenberg_rep(theta).gens == tuple(oracles.kron_power_words(pairs, ident))
        # arbitrary integer rows, negative and beyond the block orders
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(3)]
        assert _clock_shift_words(pairs, rows) == oracles.kron_power_words(pairs, rows)
    # clock_shift with gcd(p, q) > 1, negative p and p >= q
    for q, p in ((6, 4), (12, 9), (5, -2), (4, -6), (3, 7), (8, 8), (1, 5)):
        assert clock_shift(q, p) == oracles.literal_clock_shift(q, p), (q, p)


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
    L = lcm(rep1.phase_order(), rep2.phase_order())
    rows = []
    for g1, g2 in zip(rep1.gens, rep2.gens):
        inv2 = [0] * d
        for j, p in enumerate(g2.perm):
            inv2[p] = j
        u1 = [CycElt.from_phase(ph.const, L) for ph in g1.phases]
        u2 = [CycElt.from_phase(ph.const, L) for ph in g2.phases]
        for r in range(d):
            for c in range(d):
                row = {r * d + g1.perm[c]: u1[c]}
                v2 = inv2[r] * d + c
                row[v2] = row.get(v2, CycElt.zero(L)) - u2[inv2[r]]
                rows.append(row)
    pivots, _ = sparse_rref(rows, d * d, L)
    return d * d - len(pivots)


def monomial_dim(rep1, rep2):
    L = lcm(rep1.phase_order(), rep2.phase_order())
    return len(_monomial_solutions(_exponents(rep1.gens, L), _exponents(rep2.gens, L),
                                   rep1.dim, L))


def checked_intertwiner(rep1, rep2):
    """intertwiner, with every X it returns checked by the literal Q(zeta_L)
    reference."""
    X = intertwiner(rep1, rep2)
    if X is not None:
        assert cyc_intertwines(X, rep1, rep2, lcm(rep1.phase_order(), rep2.phase_order()))
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
    twist = ProjectiveRep((V, U.scalar_mul(AffinePhase((), phase))), rep.cocycle)
    both = oracles.rep_direct_sum(rep, twist)
    want = 4 if equivalent else 2
    assert commutant_dim(both) == rref_intertwiner_dim(both, both) == want
    assert numpy_commutant_dim(both) == want
    assert monomial_dim(rep, twist) == rref_intertwiner_dim(rep, twist) == int(equivalent)
    assert (checked_intertwiner(rep, twist) is not None) == equivalent
    # reducible: no single basis vector of the solution space is invertible,
    # the block swap is found among the pairwise sums
    X = checked_intertwiner(both, oracles.rep_direct_sum(twist, rep))
    assert X is not None and _cyc_det_nonzero(X)


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
        L = lcm(rep.phase_order(), conj.phase_order())
        lead = P.perm.index(0)  # the column of the first nonzero entry of P
        for j in range(d):
            for i in range(d):
                want = (CycElt.from_phase(P.phases[j].const - P.phases[lead].const, L)
                        if i == P.perm[j] else CycElt.zero(L))
                assert X[i][j] == want


def test_intertwiner_non_monomial_support():
    # diag(1, -1) and the swap are conjugate by [[1, 1], [1, -1]]: every
    # solution has full columns, so the answer comes through elimination
    flat = BilinearCocycle(RatMatrix([[0]]))
    half = Fraction(1, 2)
    U = GenPermPhaseMatrix((0, 1), [AffinePhase((), 0), AffinePhase((), half)])
    diag = ProjectiveRep([U], flat)
    swap = ProjectiveRep([GenPermPhaseMatrix((1, 0), [AffinePhase((), 0)] * 2)], flat)
    assert monomial_dim(diag, swap) == rref_intertwiner_dim(diag, swap) == 2
    assert commutant_dim(swap) == numpy_commutant_dim(swap) == 2
    one, minus = CycElt.one(2), CycElt.from_phase(half, 2)
    assert checked_intertwiner(diag, swap) == [[one, one], [one, minus]]


def test_verify_intertwiner_rejects_non_solutions():
    # candidates are {r d + c: exponent of X[r, c]}, zeros elsewhere
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    L = rep.phase_order()
    view = _exponents(rep.gens, L)
    _verify_intertwiner({0: 0, 4: 0, 8: 0}, view, view, 3, L)
    # diag(1, 1, zeta): commutes with the clock U but not with the shift V
    with pytest.raises(AssertionError):
        _verify_intertwiner({0: 0, 4: 0, 8: 1}, view, view, 3, L)
    # a single nonzero entry: the zero pattern of X U differs from U X
    with pytest.raises(AssertionError):
        _verify_intertwiner({0: 0}, view, view, 3, L)


def _exponent_verifier_accepts(vec, rep1, rep2, L):
    try:
        _verify_intertwiner(vec, _exponents(rep1.gens, L), _exponents(rep2.gens, L),
                            rep1.dim, L)
    except AssertionError:
        return False
    return True


def test_exponent_verifier_matches_field_reference():
    # true solutions (every basis vector and pairwise sum of the monomial
    # system) and each of them with one entry's exponent shifted; for the
    # commutant, also the generator images, each of which commutes with
    # some generators and not with its partner in the block
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
            L = lcm(rep1.phase_order(), rep2.phase_order())
            size = rep1.dim
            basis = _monomial_solutions(_exponents(rep1.gens, L), _exponents(rep2.gens, L),
                                        size, L)
            solutions = basis + [{**a, **b} for i, a in enumerate(basis) for b in basis[i + 1:]]
            cases = [(vec, True) for vec in solutions]
            for vec in solutions:
                v = rng.choice(sorted(vec))
                cases.append(({**vec, v: (vec[v] + rng.randrange(1, L)) % L}, False))
            if rep2 is rep:
                cases += [({image[c] * d + c: e for c, e in enumerate(exps)}, False)
                          for image, exps in _exponents(rep.gens, L)]
            zero = CycElt.zero(L)
            for vec, want in cases:
                X = [[zero] * size for _ in range(size)]
                for v, p in vec.items():
                    X[v // size][v % size] = CycElt.from_phase(Fraction(p, L), L)
                assert _exponent_verifier_accepts(vec, rep1, rep2, L) == want
                assert cyc_intertwines(X, rep1, rep2, L) == want
                checked += 1
    assert checked > 500


def test_cyc_det_nonzero_non_monomial():
    L = 3
    one, zero = CycElt.one(L), CycElt.zero(L)
    z = CycElt.from_phase(Fraction(1, 3), L)
    # row 1 is z times row 0
    singular = [[one, z, zero], [z, z * z, zero], [zero, zero, one]]
    assert not _cyc_det_nonzero(singular)
    assert _cyc_det_nonzero([[one, z, zero], [z, one, zero], [zero, zero, one]])


def test_intertwiner_self_is_identity():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    X = checked_intertwiner(rep, rep)
    assert X is not None
    L = rep.phase_order()
    for r in range(3):
        for c in range(3):
            want = CycElt.one(L) if r == c else CycElt.zero(L)
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
    L = rep.phase_order()
    expect = [[CycElt.zero(L)] * 3 for _ in range(3)]
    for j in range(3):
        expect[P.perm[j]][j] = CycElt.one(L)
    # normalized at the first nonzero entry, the permutation comes back
    lead = next(x for row in X for x in row if not x.is_zero())
    assert lead == CycElt.one(L)
    assert X == expect


def test_intertwiner_errors_on_distinct_bicharacters():
    r1 = heisenberg_rep(skew2(Fraction(1, 3)))
    r2 = heisenberg_rep(skew2(Fraction(1, 5)))
    with pytest.raises(ValueError):
        intertwiner(r1, r2)


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
    U, V = clock_shift(3, 1)
    bad_cocycle = BilinearCocycle(skew2(Fraction(2, 3)).upper())
    with pytest.raises(ValueError):
        ProjectiveRep((V, U), bad_cocycle)


def test_projective_rep_rejects_non_constant_phases():
    # the corner phase e(-s) of the Rieffel matrix depends on the point
    with pytest.raises(ValueError):
        ProjectiveRep([rieffel_N(3, 1)], BilinearCocycle([[0]]))
