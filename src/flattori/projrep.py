"""2-cocycles on Z^n with torsion phase values, bicharacters/radicals,
coboundary equivalence, and the irreducible clock-and-shift projective
representations.

Everything is exact: phases are rationals mod 1.  The commutant and
intertwiner systems X U1 = U2 X have generalized permutation-phase images U,
so each equation ties two unknowns by a root of unity; they are solved by
propagating integer phase exponents mod L = lcm(q_i) over the connected
components of the unknowns, which is exact over Q(zeta_L) without field
arithmetic.  An intertwiner is verified literally on those exponents, entry
by entry mod L, and only converted to a Q(zeta_L) matrix when it is
returned; field arithmetic is left to the determinant test of supports that
are not monomial.  No floating point in this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from .autofactor import GenPermPhaseMatrix, _phase
from .cyclotomic import CycElt
from .exact_linalg import IntMatrix, RatMatrix, SkewRatForm, lattice_kernel_mod


def _bilinear_turns(M, n, g1, g2) -> Fraction:
    """g1^t M g2 mod 1 for an n x n rational matrix M (rows indexable)."""
    total = Fraction(0)
    for i in range(n):
        if g1[i]:
            for j in range(n):
                if g2[j]:
                    total += g1[i] * M[i][j] * g2[j]
    return total % 1


@dataclass(frozen=True, slots=True)
class BilinearCocycle:
    """The 2-cocycle z(g, g') = e(g^t B g') for a rational square matrix B
    (bilinearity makes the cocycle identity automatic)."""

    n: int
    B: RatMatrix

    def __init__(self, B):
        if not isinstance(B, RatMatrix):
            B = RatMatrix(B)
        if B.rows != B.cols:
            raise ValueError("square matrix expected")
        object.__setattr__(self, "n", B.rows)
        object.__setattr__(self, "B", B)

    def value(self, g1, g2) -> Fraction:
        """Phase of z(g1, g2), in turns mod 1."""
        return _bilinear_turns(self.B, self.n, g1, g2)

    def __repr__(self):
        return f"BilinearCocycle({self.B!r})"


@dataclass(frozen=True, slots=True)
class Bicharacter:
    """Skew bicharacter chi(g, g') = e(g^t S g') with S mod 1; entries are
    kept reduced in [0, 1) with S + S^t = 0 (mod 1)."""

    n: int
    mat: tuple

    def __init__(self, mat):
        ents = tuple(tuple(Fraction(x) % 1 for x in row) for row in mat)
        n = len(ents)
        if any(len(r) != n for r in ents):
            raise ValueError("square matrix expected")
        for i in range(n):
            for j in range(n):
                if (ents[i][j] + ents[j][i]) % 1 != 0:
                    raise ValueError("matrix is not skew mod 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mat", ents)

    def value(self, g1, g2) -> Fraction:
        return _bilinear_turns(self.mat, self.n, g1, g2)

    def __repr__(self):
        return f"Bicharacter({[[str(x) for x in r] for r in self.mat]})"


def bicharacter_of(z: BilinearCocycle) -> Bicharacter:
    """Antisymmetrization z(g,g') z(g',g)^{-1}: S = (B - B^t) mod 1."""
    B = z.B
    return Bicharacter([[B[i][j] - B[j][i] for j in range(z.n)]
                        for i in range(z.n)])


def radical(chi: Bicharacter):
    """Sublattice H = {h : chi(h, g) = 1 for all g} with its finite index,
    via the integer kernel of the cleared-denominator matrix."""
    ell = lcm(*(x.denominator for row in chi.mat for x in row))
    M = IntMatrix([[x * ell for x in row] for row in chi.mat])
    return lattice_kernel_mod(M, ell)


@dataclass(frozen=True)
class QuadraticPhase:
    """Witness f(g) = e(g^t Q g + lin . g) for coboundary equivalence."""

    Q: RatMatrix
    lin: tuple

    def value(self, g) -> Fraction:
        n = self.Q.rows
        total = sum((Fraction(g[i]) * self.Q[i][j] * g[j]
                     for i in range(n) for j in range(n)), Fraction(0))
        total += sum((Fraction(l) * g[i] for i, l in enumerate(self.lin)), Fraction(0))
        return total % 1

    def coboundary(self, g1, g2) -> Fraction:
        s = tuple(a + b for a, b in zip(g1, g2))
        return (self.value(g1) + self.value(g2) - self.value(s)) % 1


def cohomologous(z1: BilinearCocycle, z2: BilinearCocycle):
    """Decide cohomology of two bilinear cocycles; the criterion is equality
    of bicharacters.  On success returns a quadratic-phase witness f with
    z1/z2 = coboundary of f, verified by substitution on 50 random pairs."""
    if z1.n != z2.n:
        raise ValueError("cocycles live on different lattices")
    if bicharacter_of(z1) != bicharacter_of(z2):
        return None
    n = z1.n
    C = z1.B - z2.B
    # symmetric representative M = -C (mod 1 entrywise), split as Q + Q^t
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = -C[i][j]
            m[j][i] = m[i][j]
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i][i] = m[i][i] / 2
        for j in range(i + 1, n):
            q[i][j] = m[i][j]
    witness = QuadraticPhase(RatMatrix(q), (Fraction(0),) * n)
    rng = random.Random(71)
    for _ in range(50):
        g1 = tuple(rng.randint(-8, 8) for _ in range(n))
        g2 = tuple(rng.randint(-8, 8) for _ in range(n))
        lhs = (z1.value(g1, g2) - z2.value(g1, g2)) % 1
        if lhs != witness.coboundary(g1, g2):
            raise AssertionError("quadratic witness failed substitution")
    return witness


def _clock_shift_words(pairs, rows):
    """For each integer row r, the tensor product over the blocks (q_t, p_t),
    t < k, of V_t^r[t] U_t^r[k + t] in Kronecker order (block 0 the most
    significant digit of the column index); entries of r past 2k are free
    directions and act trivially.  V^a U^b sends e_j to e(p b j / q)
    e_((j - a) mod q), so each generator is written column by column on
    integer phase exponents over L = lcm(q_t)."""
    k = len(pairs)
    L = lcm(1, *(q for q, _ in pairs))
    phase = [_phase(L, (), e) for e in range(L)]
    words = []
    for r in rows:
        perm, exps = [0], [0]
        for t, (q, p) in enumerate(pairs):
            a, c = r[t], p * r[k + t] * (L // q)
            perm = [P * q + (j - a) % q for P in perm for j in range(q)]
            exps = [E + c * j for E in exps for j in range(q)]
        words.append(GenPermPhaseMatrix(perm, [phase[e % L] for e in exps]))
    return words


def clock_shift(q: int, p: int):
    """Clock U = diag(e(p j / q)) and shift V e_j = e_{j-1}, with
    V U = e(p/q) U V exactly."""
    if q < 1:
        raise ValueError("q must be >= 1")
    U, V = _clock_shift_words([(q, p)], [(0, 1), (1, 0)])
    if V @ U != (U @ V).scalar_mul(_phase(q, (), p)):
        raise AssertionError("clock and shift failed to commute up to e(p/q)")
    return U, V


@dataclass(frozen=True, slots=True, eq=False)
class ProjectiveRep:
    """Projective representation of Z^n given by constant generalized
    permutation-phase generator images; the stored cocycle's
    antisymmetrization chi governs the commutation, which is verified
    exactly at construction: U_j U_i = chi(e_j, e_i) U_i U_j, and kept as
    `chi`.  Phases with an x-dependent part are rejected.  Equality is
    identity."""

    n: int
    dim: int
    gens: tuple
    cocycle: BilinearCocycle
    chi: Bicharacter

    def __init__(self, gens, cocycle: BilinearCocycle):
        gens = tuple(gens)
        if len(gens) != cocycle.n:
            raise ValueError("one generator image per lattice generator")
        dims = {g.size for g in gens}
        if len(dims) != 1:
            raise ValueError("generator images must share a size")
        if any(any(ph.nums) for g in gens for ph in g.phases):
            raise ValueError("generator images must have constant phases")
        chi = bicharacter_of(cocycle)
        # U_j U_i = chi(e_j, e_i) U_i U_j for i < j implies the relation for
        # (j, i): chi is skew mod 1 and scalar_mul is exact
        for j in range(len(gens)):
            for i in range(j):
                scal = _phase(chi.mat[j][i].denominator, (), chi.mat[j][i].numerator)
                if gens[j] @ gens[i] != (gens[i] @ gens[j]).scalar_mul(scal):
                    raise ValueError("generator images do not realize the cocycle's "
                                     "commutation relations")
        object.__setattr__(self, "n", cocycle.n)
        object.__setattr__(self, "dim", dims.pop())
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "chi", chi)

    def phase_order(self) -> int:
        return lcm(1, *(p.den for g in self.gens for p in g.phases))

    def records(self):
        """Export as (generator index, permutation, phase list) records."""
        return [(i, list(g.perm), [str(p.const) for p in g.phases])
                for i, g in enumerate(self.gens)]

    def __repr__(self):
        return f"ProjectiveRep(n={self.n}, dim={self.dim})"


def _normal_form_blocks(theta: SkewRatForm):
    """Detect the [[0, D, 0], [-D, 0, 0], [0, 0, 0]] block pattern; returns
    the list of diagonal fractions of D."""
    n = theta.n
    nz = [(i, j) for i in range(n) for j in range(i + 1, n) if theta.mat[i][j] != 0]
    k = len(nz)
    if nz != [(i, k + i) for i in range(k)]:
        raise ValueError("input is not in block normal form")
    return [theta.mat[i][k + i] for i in range(k)]


def heisenberg_rep(theta: SkewRatForm) -> ProjectiveRep:
    """Irreducible projective representation attached to a block normal form:
    the tensor product over blocks p_i/q_i of the clock/shift pair, trivial
    on the free directions.  Dimension is the product of the q_i."""
    pairs = [(b.denominator, b.numerator) for b in _normal_form_blocks(theta)]
    rows = [[int(i == j) for j in range(theta.n)] for i in range(theta.n)]
    return ProjectiveRep(_clock_shift_words(pairs, rows), BilinearCocycle(theta.upper()))


def _exponents(gens, L: int):
    """Each constant generalized permutation-phase image as (perm, e) with
    entry (perm[c], c) equal to zeta_L^e[c]; L must be a multiple of every
    phase denominator."""
    return [(g.perm, [ph.num * (L // ph.den) for ph in g.phases])
            for g in gens]


def _monomial_solutions(view1, view2, d: int, L: int):
    """Basis of {X : X U1_i = U2_i X} over Q(zeta_L) for paired exponent
    views (`_exponents`) of generalized permutation-phase images of size d.

    Unknown v = r d + c is X[r, c].  With U e_c = zeta^e[c] e_perm(c), entry
    (perm2(r), c) of X U1 = U2 X reads
    zeta^e1[c] X[perm2(r), perm1(c)] = zeta^e2[r] X[r, c],
    so every equation ties exactly two unknowns by a root of unity.
    Propagating x_v = zeta^p(v) x_root from the first unknown of each
    connected component fixes p(v) mod L; every further equation closes a
    cycle, and one that closes with zeta^m != 1 gives x_root = zeta^m x_root,
    which forces the component to zero.  Returns the consistent components
    in order of their first unknown, each as {v: p(v)} with p = 0 at the
    first unknown: the vector with entries zeta^p(v) there, zeros elsewhere."""
    steps = []
    for (perm1, e1), (perm2, e2) in zip(view1, view2):
        # X[perm2(r), perm1(c)] = zeta^(e2[r] - e1[c]) X[r, c]
        steps.append(([(perm2[r] * d, e2[r]) for r in range(d)],
                      [(perm1[c], -e1[c]) for c in range(d)]))
    phase = [None] * (d * d)
    components = []
    for root in range(d * d):
        if phase[root] is not None:
            continue
        phase[root] = 0
        comp = {root: 0}
        stack = [root]
        closes = True
        while stack:
            v = stack.pop()
            r, c = divmod(v, d)
            for rows, cols in steps:
                w = rows[r][0] + cols[c][0]
                pw = (phase[v] + rows[r][1] + cols[c][1]) % L
                if phase[w] is None:
                    phase[w] = comp[w] = pw
                    stack.append(w)
                elif phase[w] != pw:
                    closes = False
        if closes:
            components.append(comp)
    return components


def commutant_dim(rep: ProjectiveRep) -> int:
    """Dimension of the commutant of the generator images over the
    cyclotomic field of the phase order: the number of components of the
    monomial system that close with phase 1."""
    L = rep.phase_order()
    view = _exponents(rep.gens, L)
    return len(_monomial_solutions(view, view, rep.dim, L))


def _cyc_det_nonzero(m) -> bool:
    d = len(m)
    a = [row[:] for row in m]
    for col in range(d):
        piv = next((r for r in range(col, d) if not a[r][col].is_zero()), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].inverse()
        a[col] = [inv * x for x in a[col]]
        for r in range(col + 1, d):
            if not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x if y.is_zero() else x - f * y for x, y in zip(a[r], a[col])]
    return True


def intertwiner(rep1: ProjectiveRep, rep2: ProjectiveRep):
    """Exact invertible X with X rep1(g) = rep2(g) X on generators, when the
    representations are unitarily equivalent; None otherwise.

    Distinct bicharacters are a contract violation (error), not a negative
    answer.  For equal-cocycle irreducibles a nonzero solution is invertible
    by the Schur argument, so the first basis vector of the solution space
    decides; reducible inputs are probed through pairwise sums of basis
    vectors.  A support with one entry per row and column is invertible
    (det = +- a product of roots of unity); any other is eliminated exactly
    over Q(zeta_L).  The answer is verified on its phase exponents and
    returned as a matrix over Q(zeta_L).
    """
    if rep1.chi != rep2.chi:
        raise ValueError("cocycle mismatch: distinct bicharacters")
    if rep1.n != rep2.n:
        raise ValueError("representations of different lattices")
    if rep1.dim != rep2.dim:
        return None
    d = rep1.dim
    L = lcm(rep1.phase_order(), rep2.phase_order())
    view1, view2 = _exponents(rep1.gens, L), _exponents(rep2.gens, L)
    basis = _monomial_solutions(view1, view2, d, L)
    # components are disjoint, so a sum of two is again a phase vector, and
    # it is 1 at its first nonzero entry (row-major), where a component starts
    pairs = ({**a, **b} for i, a in enumerate(basis) for b in basis[i + 1:])
    zero = CycElt.zero(L)
    for vec in chain(basis, pairs):
        X = [[zero] * d for _ in range(d)]
        for v, p in vec.items():
            X[v // d][v % d] = CycElt.from_phase(Fraction(p, L), L)
        monomial = (len(vec) == d and len({v // d for v in vec}) == d
                    and len({v % d for v in vec}) == d)
        if monomial or _cyc_det_nonzero(X):
            _verify_intertwiner(vec, view1, view2, d, L)
            return X
    return None


def _verify_intertwiner(vec, view1, view2, d: int, L: int):
    """X U1 = U2 X for every generator, entry by entry on exponents mod L,
    where X has entry zeta^p at unknown v = r d + c for each v: p in vec and
    zeros elsewhere.  U is monomial and vec is a phase vector, so each entry
    of either side is zero or one root of unity:
    (X U1)[r, inv1(k)] = zeta^(p + e1[inv1(k)]) and
    (U2 X)[perm2(k), c] = zeta^(e2[k] + p)."""
    support = [(v // d, v % d, p) for v, p in vec.items()]
    for (perm1, e1), (perm2, e2) in zip(view1, view2):
        inv1 = {k: j for j, k in enumerate(perm1)}
        lhs = {(r, inv1[k]): (p + e1[inv1[k]]) % L for r, k, p in support}
        rhs = {(perm2[k], c): (e2[k] + p) % L for k, c, p in support}
        if lhs != rhs:
            raise AssertionError("intertwiner failed literal verification")
