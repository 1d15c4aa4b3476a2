import random
from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np
import pytest

from flattori.autofactor import AffinePhase, GenPermPhaseMatrix
from flattori.cyclotomic import CycElt, sparse_rref
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
from flattori.projrep import _cyc_det_nonzero, _monomial_solutions, _verify_intertwiner


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
    assert bicharacter_of(sym).is_trivial()
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
    assert U1 == GenPermPhaseMatrix.identity(1) and V1 == GenPermPhaseMatrix.identity(1)
    U, V = clock_shift(3, 1)
    scal = AffinePhase((), Fraction(1, 3))
    assert V @ U == (U @ V).scalar_mul(scal)
    # q-torsion of clock and shift
    assert U ** 3 == GenPermPhaseMatrix.identity(3)
    assert V ** 3 == GenPermPhaseMatrix.identity(3)
    with pytest.raises(ValueError):
        clock_shift(0, 1)


def test_heisenberg_trivial():
    theta = SkewRatForm([[0, 0], [0, 0]])
    rep = heisenberg_rep(theta)
    assert rep.dim == 1
    assert all(g == GenPermPhaseMatrix.identity(1) for g in rep.gens)


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
    assert rep.gens[2] == GenPermPhaseMatrix.identity(2)


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


def _as_normal_form(blocks):
    k = len(blocks)
    n = 2 * k
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
        U, U2 = g.to_complex(()), g2.to_complex(())
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
    return len(_monomial_solutions(rep1.gens, rep2.gens, rep1.dim, L))


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
    two = rep.direct_sum(rep)
    assert commutant_dim(two) == 4
    assert numpy_commutant_dim(two) == 4
    three = two.direct_sum(rep)
    assert commutant_dim(three) == rref_intertwiner_dim(three, three) == 9
    assert numpy_commutant_dim(three) == 9


@pytest.mark.parametrize("phase, equivalent", [
    (Fraction(1, 6), False), (Fraction(1, 2), False), (Fraction(1, 3), True)])
def test_scalar_twist_of_clock(phase, equivalent):
    # e(phase) U has the spectrum of U exactly when phase is a multiple of 1/3
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    V, U = rep.gens
    twist = ProjectiveRep((V, U.scalar_mul(AffinePhase((), phase))), rep.cocycle)
    both = rep.direct_sum(twist)
    want = 4 if equivalent else 2
    assert commutant_dim(both) == rref_intertwiner_dim(both, both) == want
    assert numpy_commutant_dim(both) == want
    assert monomial_dim(rep, twist) == rref_intertwiner_dim(rep, twist) == int(equivalent)
    assert (intertwiner(rep, twist) is not None) == equivalent
    # reducible: no single basis vector of the solution space is invertible,
    # the block swap is found among the pairwise sums
    X = intertwiner(both, twist.direct_sum(rep))
    assert X is not None and _cyc_det_nonzero(X, both.phase_order())


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
        assert commutant_dim(rep.direct_sum(conj)) == 4
        X = intertwiner(rep, conj)
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
    assert intertwiner(diag, swap) == [[one, one], [one, minus]]


def test_verify_intertwiner_rejects_non_solutions():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    L = rep.phase_order()
    one, zero = CycElt.one(L), CycElt.zero(L)
    z = CycElt.from_phase(Fraction(1, 3), L)
    _verify_intertwiner([[one if r == c else zero for c in range(3)] for r in range(3)],
                        rep, rep, L)
    # commutes with the clock U but not with the shift V
    diag = [[(z if r == 2 else one) if r == c else zero for c in range(3)] for r in range(3)]
    with pytest.raises(AssertionError):
        _verify_intertwiner(diag, rep, rep, L)
    # a single nonzero entry: the zero pattern of X U differs from U X
    unit = [[one if (r, c) == (0, 0) else zero for c in range(3)] for r in range(3)]
    with pytest.raises(AssertionError):
        _verify_intertwiner(unit, rep, rep, L)


def test_cyc_det_nonzero_non_monomial():
    L = 3
    one, zero = CycElt.one(L), CycElt.zero(L)
    z = CycElt.from_phase(Fraction(1, 3), L)
    # row 1 is z times row 0
    singular = [[one, z, zero], [z, z * z, zero], [zero, zero, one]]
    assert not _cyc_det_nonzero(singular, L)
    assert _cyc_det_nonzero([[one, z, zero], [z, one, zero], [zero, zero, one]], L)


def test_intertwiner_self_is_identity():
    rep = heisenberg_rep(skew2(Fraction(1, 3)))
    X = intertwiner(rep, rep)
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
    X = intertwiner(rep, conj)
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
        assert intertwiner(rep, conj) is not None


def test_projective_rep_rejects_wrong_commutation():
    U, V = clock_shift(3, 1)
    bad_cocycle = BilinearCocycle(skew2(Fraction(2, 3)).upper())
    with pytest.raises(ValueError):
        ProjectiveRep((V, U), bad_cocycle)
