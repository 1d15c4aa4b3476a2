"""2-cocycles on Z^n with torsion phase values, bicharacters/radicals,
coboundary equivalence, and the irreducible clock-and-shift projective
representations.

Everything is exact: phases are rationals mod 1.  The commutant and
intertwiner systems X U1 = U2 X have generalized permutation-phase images U,
so each equation ties two unknowns by a root of unity; they are solved by
propagating integer phase exponents mod L = lcm(q_i) over the connected
components of the unknowns, which is exact over Q(zeta_L) without field
arithmetic.  Intertwiners come back as Q(zeta_L) matrices, verified
literally.  No floating point in this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from .autofactor import AffinePhase, GenPermPhaseMatrix
from .cyclotomic import CycElt
from .exact_linalg import IntMatrix, RatMatrix, SkewRatForm, lattice_kernel_mod


class BilinearCocycle:
    """The 2-cocycle z(g, g') = e(g^t B g') for a rational square matrix B
    (bilinearity makes the cocycle identity automatic)."""

    __slots__ = ("n", "B")

    def __init__(self, B):
        if not isinstance(B, RatMatrix):
            B = RatMatrix(B)
        if B.rows != B.cols:
            raise ValueError("square matrix expected")
        object.__setattr__(self, "n", B.rows)
        object.__setattr__(self, "B", B)

    def __setattr__(self, name, value):
        raise AttributeError("BilinearCocycle is immutable")

    def value(self, g1, g2) -> Fraction:
        """Phase of z(g1, g2), in turns mod 1."""
        total = Fraction(0)
        for i in range(self.n):
            if g1[i]:
                for j in range(self.n):
                    if g2[j]:
                        total += g1[i] * self.B[i][j] * g2[j]
        return total % 1

    def __eq__(self, other):
        return isinstance(other, BilinearCocycle) and self.B == other.B

    def __hash__(self):
        return hash(self.B)

    def __repr__(self):
        return f"BilinearCocycle({self.B!r})"


class Bicharacter:
    """Skew bicharacter chi(g, g') = e(g^t S g') with S mod 1; entries are
    kept reduced in [0, 1) with S + S^t = 0 (mod 1)."""

    __slots__ = ("n", "mat")

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

    def __setattr__(self, name, value):
        raise AttributeError("Bicharacter is immutable")

    def value(self, g1, g2) -> Fraction:
        total = Fraction(0)
        for i in range(self.n):
            if g1[i]:
                for j in range(self.n):
                    if g2[j]:
                        total += g1[i] * self.mat[i][j] * g2[j]
        return total % 1

    def is_trivial(self) -> bool:
        return all(x == 0 for row in self.mat for x in row)

    def __eq__(self, other):
        return isinstance(other, Bicharacter) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

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
    M = IntMatrix([[int(x * ell) for x in row] for row in chi.mat])
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
        assert lhs == witness.coboundary(g1, g2)
    return witness


def clock_shift(q: int, p: int):
    """Clock U = diag(e(p j / q)) and shift V e_j = e_{j-1}, with
    V U = e(p/q) U V exactly."""
    if q < 1:
        raise ValueError("q must be >= 1")
    U = GenPermPhaseMatrix(range(q), [AffinePhase((), Fraction(p * j, q) % 1)
                                      for j in range(q)])
    V = GenPermPhaseMatrix([(j - 1) % q for j in range(q)],
                           [AffinePhase((), 0)] * q)
    assert V @ U == (U @ V).scalar_mul(AffinePhase((), Fraction(p, q)))
    return U, V


class ProjectiveRep:
    """Projective representation of Z^n given by constant generalized
    permutation-phase generator images; the stored cocycle's
    antisymmetrization chi governs the commutation, which is verified
    exactly at construction: U_j U_i = chi(e_j, e_i) U_i U_j."""

    __slots__ = ("n", "dim", "gens", "cocycle")

    def __init__(self, gens, cocycle: BilinearCocycle):
        gens = tuple(gens)
        if len(gens) != cocycle.n:
            raise ValueError("one generator image per lattice generator")
        dims = {g.size for g in gens}
        if len(dims) != 1:
            raise ValueError("generator images must share a size")
        chi = bicharacter_of(cocycle)
        for j in range(len(gens)):
            for i in range(len(gens)):
                if i == j:
                    continue
                scal = AffinePhase((), chi.mat[j][i])
                if gens[j] @ gens[i] != (gens[i] @ gens[j]).scalar_mul(scal):
                    raise ValueError("generator images do not realize the cocycle's "
                                     "commutation relations")
        object.__setattr__(self, "n", cocycle.n)
        object.__setattr__(self, "dim", dims.pop())
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "cocycle", cocycle)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveRep is immutable")

    def direct_sum(self, other: "ProjectiveRep") -> "ProjectiveRep":
        if self.cocycle != other.cocycle:
            raise ValueError("direct sum needs equal cocycles")
        return ProjectiveRep((a.direct_sum(b) for a, b in zip(self.gens, other.gens)),
                             self.cocycle)

    def phase_order(self) -> int:
        return lcm(1, *(p.const.denominator for g in self.gens for p in g.phases))

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
    blocks = _normal_form_blocks(theta)
    k = len(blocks)
    n = theta.n
    qs = [b.denominator for b in blocks]
    pairs = [clock_shift(b.denominator, b.numerator) for b in blocks]
    gens = []
    for i in range(n):
        if k == 0:
            gens.append(GenPermPhaseMatrix.identity(1))
            continue
        factors = []
        for t in range(k):
            if i == t:
                factors.append(pairs[t][1])       # x-direction: shift
            elif i == k + t:
                factors.append(pairs[t][0])       # y-direction: clock
            else:
                factors.append(GenPermPhaseMatrix.identity(qs[t]))
        m = factors[0]
        for f in factors[1:]:
            m = m.kron(f)
        gens.append(m)
    return ProjectiveRep(gens, BilinearCocycle(theta.upper()))


def _monomial_solutions(gens1, gens2, d: int, L: int):
    """Basis of {X : X U1_i = U2_i X} over Q(zeta_L) for paired generalized
    permutation-phase images of size d, solved on integer phase exponents.

    Unknown v = r d + c is X[r, c].  With U e_c = u_c e_perm(c), entry
    (perm2(r), c) of X U1 = U2 X reads u1_c X[perm2(r), perm1(c)] = u2_r X[r, c],
    so every equation ties exactly two unknowns by a root of unity.
    Propagating x_v = zeta^p(v) x_root from the first unknown of each
    connected component fixes p(v) mod L; every further equation closes a
    cycle, and one that closes with zeta^m != 1 gives x_root = zeta^m x_root,
    which forces the component to zero.  Returns the consistent components
    in order of their first unknown, each as {v: p(v)} with p = 0 at the
    first unknown: the vector with entries zeta^p(v) there, zeros elsewhere."""
    steps = []
    for g1, g2 in zip(gens1, gens2):
        # X[perm2(r), perm1(c)] = zeta^(e2[r] - e1[c]) X[r, c], u = zeta^e
        steps.append(([(g2.perm[r] * d, ph.const.numerator * (L // ph.const.denominator))
                       for r, ph in enumerate(g2.phases)],
                      [(g1.perm[c], -ph.const.numerator * (L // ph.const.denominator))
                       for c, ph in enumerate(g1.phases)]))
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
    return len(_monomial_solutions(rep.gens, rep.gens, rep.dim, rep.phase_order()))


def _cyc_det_nonzero(m, L) -> bool:
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
    (det = +- a product of roots of unity); any other is eliminated exactly.
    """
    if bicharacter_of(rep1.cocycle) != bicharacter_of(rep2.cocycle):
        raise ValueError("cocycle mismatch: distinct bicharacters")
    if rep1.n != rep2.n:
        raise ValueError("representations of different lattices")
    if rep1.dim != rep2.dim:
        return None
    d = rep1.dim
    L = lcm(rep1.phase_order(), rep2.phase_order())
    basis = _monomial_solutions(rep1.gens, rep2.gens, d, L)
    # components are disjoint, so a sum of two is again a phase vector, and
    # it is 1 at its first nonzero entry (row-major), where a component starts
    pairs = ({**a, **b} for i, a in enumerate(basis) for b in basis[i + 1:])
    roots = [CycElt.from_phase(Fraction(k, L), L) for k in range(L)]
    zero = CycElt.zero(L)
    for vec in chain(basis, pairs):
        X = [[zero] * d for _ in range(d)]
        for v, p in vec.items():
            X[v // d][v % d] = roots[p]
        monomial = (len(vec) == d and len({v // d for v in vec}) == d
                    and len({v % d for v in vec}) == d)
        if monomial or _cyc_det_nonzero(X, L):
            _verify_intertwiner(X, rep1, rep2, L)
            return X
    return None


def _verify_intertwiner(X, rep1, rep2, L):
    """X U1 = U2 X over Q(zeta_L) for every generator, entry by entry.  U is
    monomial, so each entry of either side is one product:
    (X U1)[r, inv1(k)] = X[r, k] u1_inv1(k) and (U2 X)[perm2(k), c] = u2_k X[k, c]."""
    support = [(r, k, x) for r, row in enumerate(X) for k, x in enumerate(row)
               if not x.is_zero()]
    for g1, g2 in zip(rep1.gens, rep2.gens):
        inv1 = {p: j for j, p in enumerate(g1.perm)}
        u1 = [CycElt.from_phase(ph.const, L) for ph in g1.phases]
        u2 = [CycElt.from_phase(ph.const, L) for ph in g2.phases]
        lhs = {(r, inv1[k]): x * u1[inv1[k]] for r, k, x in support}
        rhs = {(g2.perm[k], c): u2[k] * x for k, c, x in support}
        if lhs != rhs:
            raise AssertionError("intertwiner failed literal verification")
