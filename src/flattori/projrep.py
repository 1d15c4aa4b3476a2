"""Projective representations of Z^n by generalized permutation-phase
images: the irreducible clock-and-shift representations, all written by one
builder that refuses a dimension above REP_DIM_LIMIT, and their commutants
and intertwiners.

A representation is its exponent words and its cocycle class.  Generator i
is the word (perm, e) over the phase order L, entry (perm[c], c) equal to
zeta_L^e[c].  The class of a 2-cocycle on Z^n in H^2(Z^n, U(1)) is its
commutator bicharacter, a skew form mod Z, kept as the `frac()`
representative of a `SkewRatForm`; the relations U_j U_i = chi(e_j, e_i)
U_i U_j are verified on the words by one check, which both ways of building
a representation share.  The commutant and intertwiner systems
X U1 = U2 X tie two unknowns by a root of unity per equation.  By
Frobenius reciprocity they are solved on d unknowns per orbit of U1's
permutations, the column of X at the orbit's base point, under one
constraint per generator of the point's stabilizer, by propagating integer
phase exponents mod L over the connected components of the unknowns: exact
over Q(zeta_L) without field arithmetic.  Two such representations are
equivalent exactly when their three Hom dimensions agree, because the
images generate a finite group.
An intertwiner is a weighted sum of the Hom components; its support, or
its determinant mod a prime p = 1 (mod L), proves it invertible, and it is
verified literally on its (weight, exponent) entries before it is returned
as a Q(zeta_L) matrix.  No floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, isqrt, lcm, prod

from .autofactor import GenPermPhaseMatrix, _matrix, _phase
from .cyclotomic import CycElt, _element, _zeta_power
from .exact_linalg import SkewRatForm, _instance, _tuple

# largest dimension of a built clock/shift representation (d phases per
# generator: about 1 s and 10 MB at the limit on a 2-vCPU host)
REP_DIM_LIMIT = 10_000


def _clock_shift_rep(theta: SkewRatForm, pairs, rows) -> ProjectiveRep:
    """The representation of theta with one generator per integer row r: the
    tensor product over the blocks (q_t, p_t), t < k, of V_t^r[t] U_t^r[k + t]
    in Kronecker order (block 0 the most significant digit of the column
    index); entries of r past 2k are free directions and act trivially.
    V^a U^b sends e_j to e(p b j / q) e_((j - a) mod q), written column by
    column as the word (perm, e) over L0 = lcm(theta.ell, q_t), then over
    the phase order L = lcm(chi.ell, L0 / gcd(L0, every exponent)) for
    chi = theta.frac(), the rule of `ProjectiveRep(gens, cocycle)`; L = L0
    when the pairs are in lowest terms and the rows unimodular, as in every
    library caller.  prod q_t above REP_DIM_LIMIT is refused before any word
    is built; the words are verified on chi (`_store_rep`)."""
    dim = prod(q for q, _ in pairs)
    if dim > REP_DIM_LIMIT:
        raise ValueError(f"dimension {dim} exceeds the rep limit {REP_DIM_LIMIT}")
    k = len(pairs)
    L0 = lcm(theta.ell, *(q for q, _ in pairs))
    words = []
    for r in rows:
        perm, exps = [0], [0]
        for t, (q, p) in enumerate(pairs):
            a, c = r[t], p * r[k + t] * (L0 // q)
            perm = [P * q + (j - a) % q for P in perm for j in range(q)]
            exps = [E + c * j for E in exps for j in range(q)]
        words.append((tuple(perm), tuple([e % L0 for e in exps])))
    chi = theta.frac()
    L = lcm(chi.ell, L0 // gcd(L0, *chain.from_iterable(e for _, e in words)))
    if L != L0:  # pairs not in lowest terms or rows not unimodular: L0 / L divides every e
        words = [(perm, tuple([x // (L0 // L) for x in e])) for perm, e in words]
    return _store_rep(object.__new__(ProjectiveRep), words, L, chi)


def _store_rep(rep: ProjectiveRep, words: list, L: int, chi: SkewRatForm) -> ProjectiveRep:
    """Set the fields of rep from its words (perm, e) over L and the
    bicharacter chi, a `frac()` representative whose ell divides L, after
    checking U_j U_i = chi(e_j, e_i) U_i U_j column by column on the words,
    without multiplying matrices; a failure names the pair (j, i), the
    column and both exponents mod L."""
    # column c of U_j U_i and U_i U_j, U e_c = zeta^e[c] e_perm[c]; i < j suffices
    for j, (pj, ej) in enumerate(words):
        for i, (pi, ei) in enumerate(words[:j]):
            s = chi.S[j][i] * (L // chi.ell)
            c = next((c for c in range(len(pi)) if pj[pi[c]] != pi[pj[c]]
                      or (ei[c] + ej[pi[c]] - ej[c] - ei[pj[c]] - s) % L), None)
            if c is not None:
                raise ValueError(
                    "generator images do not realize the cocycle's commutation relations: "
                    f"at (j, i) = ({j}, {i}), column {c}: U_{j} U_{i} has row {pj[pi[c]]}, "
                    f"exponent {(ei[c] + ej[pi[c]]) % L}; chi(e_{j}, e_{i}) U_{i} U_{j} has "
                    f"row {pi[pj[c]]}, exponent {(ej[c] + ei[pj[c]] + s) % L} (mod L = {L})")
    object.__setattr__(rep, "n", chi.n)
    object.__setattr__(rep, "dim", len(words[0][0]))
    object.__setattr__(rep, "cocycle", chi)
    object.__setattr__(rep, "L", L)
    object.__setattr__(rep, "exponents", tuple(words))
    return rep


@dataclass(frozen=True, slots=True, eq=False)
class ProjectiveRep:
    """Projective representation of Z^n: one word (perm, e) over the phase
    order L per generator, kept as `exponents`, entry (perm[c], c) equal to
    zeta_L^e[c], and the cocycle class, kept as `cocycle`: the bicharacter
    chi, a skew form mod Z in its `frac()` representative, with
    U_j U_i = chi(e_j, e_i) U_i U_j.

    `ProjectiveRep(gens, cocycle)` reads constant generalized
    permutation-phase images of one size and any `SkewRatForm` of the
    class; L = lcm(chi.ell, phase denominators).  The relations hold only
    when chi.ell divides the phase order, so L is the phase order.  Phases
    with an x-dependent part are rejected.  Equality is identity."""

    n: int
    dim: int
    cocycle: SkewRatForm
    L: int
    exponents: tuple

    def __init__(self, gens, cocycle: SkewRatForm):
        chi = _instance(cocycle, SkewRatForm).frac()
        gens = [_instance(g, GenPermPhaseMatrix) for g in _tuple(gens)]
        if len(gens) != chi.n:
            raise ValueError("one generator image per lattice generator")
        if len({g.size for g in gens}) != 1:
            raise ValueError("generator images must share a size")
        if any(any(ph.nums) for g in gens for ph in g.phases):
            raise ValueError("generator images must have constant phases")
        L = lcm(chi.ell, *(ph.den for g in gens for ph in g.phases))
        _store_rep(self, [(g.perm, tuple([ph.num * (L // ph.den) for ph in g.phases]))
                          for g in gens], L, chi)

    @property
    def gens(self) -> tuple:
        """The generator images as constant `GenPermPhaseMatrix`es."""
        L = self.L
        phase = {x: _phase(L, (), x) for x in {x for _, e in self.exponents for x in e}}
        return tuple(_matrix(perm, tuple([phase[x] for x in e])) for perm, e in self.exponents)

    def records(self):
        """Export as (generator index, permutation, phase list) records."""
        return [(i, list(perm), [str(Fraction(x, self.L)) for x in e])
                for i, (perm, e) in enumerate(self.exponents)]

    def __repr__(self):
        return f"ProjectiveRep(n={self.n}, dim={self.dim})"


def _normal_form_blocks(theta: SkewRatForm):
    """The clock/shift pair (q, p) of each diagonal entry p/q of D, in lowest
    terms (q = ell/g and p = S/g for g = gcd(ell, S)), when theta has the
    block pattern [[0, D, 0], [-D, 0, 0], [0, 0, 0]]; None when it has not."""
    n, ell, S = theta.n, theta.ell, theta.S
    nz = [(i, j) for i in range(n) for j in range(i + 1, n) if S[i][j] != 0]
    k = len(nz)
    if nz != [(i, k + i) for i in range(k)]:
        return None
    return [(ell // (g := gcd(ell, S[i][k + i])), S[i][k + i] // g) for i in range(k)]


def heisenberg_rep(theta: SkewRatForm) -> ProjectiveRep:
    """Irreducible projective representation of a block normal form: the
    tensor product over its blocks p_i/q_i of the clock/shift pairs, trivial
    on the free directions (`_clock_shift_rep` on the unit rows).  The
    dimension is the product of the q_i; above REP_DIM_LIMIT it is refused."""
    pairs = _normal_form_blocks(_instance(theta, SkewRatForm))
    if pairs is None:
        raise ValueError("input is not in block normal form")
    rows = [[int(i == j) for j in range(theta.n)] for i in range(theta.n)]
    return _clock_shift_rep(theta, pairs, rows)


def _power(perm, e, m: int):
    """The word of U^m, for any integer m, from the word (perm, e) of U, by
    cycles in O(d): on a cycle (c_0 .. c_k-1) of perm, U^m sends c_i to
    c_(i+m mod k) with the exponents of the m steps summed (unreduced)."""
    d = len(perm)
    pm, em = [-1] * d, [0] * d
    for s in range(d):
        if pm[s] >= 0:
            continue
        cycle, c = [s], perm[s]
        while c != s:
            cycle.append(c)
            c = perm[c]
        k = len(cycle)
        turns, rest = divmod(m, k)
        total = turns * sum([e[c] for c in cycle])
        if rest:
            sums = list(accumulate([e[c] for c in cycle + cycle], initial=0))
            for i, c in enumerate(cycle):
                pm[c] = cycle[(i + rest) % k]
                em[c] = total + sums[i + rest] - sums[i]
        else:  # whole turns: every point comes back
            for c in cycle:
                pm[c] = c
                em[c] = total
    return pm, em


def _hom_slices(view1, view2, d: int, L: int):
    """Hom(U1, U2) = {X : X U1_j = U2_j X} over Q(zeta_L) for paired exponent
    views (`ProjectiveRep.exponents`) of size d, one orbit of U1's
    permutations sigma_j at a time, on d unknowns (Frobenius reciprocity,
    Mackey 1952): a list of (orbit, links, slices), one per orbit O, with
    base point b the least index of O.

    The column x = X e_b determines X on O: U1_j e_c = zeta^e1_j[c]
    e_sigma_j(c) gives X e_sigma_j(c) = zeta^-e1_j[c] U2_j X e_c.  O grows
    one generator at a time.  m_j >= 1 is least with sigma_j^m_j(b) in the
    orbit of sigma_0 .. sigma_j-1, and the points sigma_j^t(y), 0 < t < m_j,
    follow the earlier ones in order.  So the point at position
    sum a_t prod_(s<t) m_s is sigma^a(b), reached by the path sigma_0^a_0,
    then sigma_1^a_1, ..., whose word is W(a) = U_j-1^a_j-1 ... U_0^a_0;
    `orbit` lists the points by position, and `links[i - 1]` =
    (parent position, j) of position i > 0.  With a_j the digits of the
    position of sigma_j^m_j(b), the vectors m_j e_j - a_j are a triangular
    basis of the stabilizer of b, and each gives one monomial constraint
    on x,
    zeta^-alpha1 U2_j^m_j x = zeta^-alpha2 W2(a_j) x, with alpha1 and alpha2
    the exponents of U1 along the two paths from b.  Both sides take the
    same word in U1 and U2, whose bicharacter is the same, so the
    constraints of a basis give those of the whole stabilizer.  A generator
    that fixes b (m_j = 1, a_j = 0) is its own constraint; any other takes
    powers of words by `_power`, O(d) each, once for all orbits that share
    m_0 .. m_j and a_j.  `slices` are the consistent
    components of `_closing` on the constraints, each {r: p(r)}, the vector
    x with entries zeta^p(r) there."""
    pos = [-1] * d
    out, words = [], {}
    for b in range(d):
        if pos[b] >= 0:
            continue
        pos[b] = 0
        orbit, phase, links, radix, steps = [b], [0], [], [], []
        for j, (perm1, e1) in enumerate(view1):
            perm2, e2 = view2[j]
            z, alpha, m = perm1[b], e1[b], 1
            while pos[z] < 0:
                z, alpha, m = perm1[z], alpha + e1[z], m + 1
            a = pos[z]
            radix.append(m)
            if m == 1 and a == 0:  # sigma_j fixes b: U2_j x = zeta^alpha1 x
                steps.append((perm2, e2, -alpha))
                continue
            for i in range((m - 1) * len(orbit)):
                x = orbit[i]
                pos[perm1[x]] = len(orbit)
                orbit.append(perm1[x])
                phase.append(phase[i] + e1[x])
                links.append((i, j))
            # W2(a)^-1 U2_j^m = U2_0^-a_0 ... U2_j-1^-a_j-1 U2_j^m, the same
            # word for every orbit with the same radix and a
            key = (a, *radix)
            if key not in words:
                pw, ew = _power(perm2, e2, m)
                if a:
                    digits, rest = [], a
                    for mt in radix:
                        rest, at = divmod(rest, mt)
                        digits.append(at)
                    for t in reversed(range(j)):
                        if digits[t]:
                            pt, et = _power(*view2[t], -digits[t])
                            pw, ew = [pt[s] for s in pw], [x + et[s] for x, s in zip(ew, pw)]
                words[key] = pw, ew
            steps.append((*words[key], phase[a] - alpha))
        out.append((orbit, links, _closing(steps, d, L)))
    return out


def _closing(steps, d: int, L: int):
    """Solutions of x_perm[r] = zeta^(e[r] + k) x_r for each (perm, e, k) in
    steps, on d unknowns.  Propagating x_v = zeta^p(v) x_root from the least
    unknown of each connected component fixes p(v) mod L; every further
    equation closes a cycle, and one that closes with zeta^m != 1 gives
    x_root = zeta^m x_root, which forces the component to zero.  Returns the
    consistent components in order of their least unknown, each as
    {v: p(v)} with p = 0 there."""
    phase = [None] * d
    components = []
    for root in range(d):
        if phase[root] is not None:
            continue
        phase[root] = 0
        comp = {root: 0}
        stack = [root]
        closes = True
        while stack:
            v = stack.pop()
            pv = phase[v]
            for perm, e, k in steps:
                w = perm[v]
                pw = (pv + e[v] + k) % L
                if phase[w] is None:
                    phase[w] = comp[w] = pw
                    stack.append(w)
                elif phase[w] != pw:
                    closes = False
        if closes:
            components.append(comp)
    return components


def _hom_dim(view1, view2, d: int, L: int) -> int:
    """dim Hom(U1, U2): the number of consistent components over all orbits."""
    return sum([len(slices) for *_, slices in _hom_slices(view1, view2, d, L)])


def _hom_basis(view1, view2, d: int, L: int):
    """Basis of Hom(U1, U2) on the d^2 unknowns v = r d + c, X[r, c]: each
    consistent component x of `_hom_slices`, carried over its orbit's
    links by X e_sigma_j(c) = zeta^-e1_j[c] U2_j X e_c.  Returns {v: p(v)}
    per basis vector (entries zeta^p(v), zeros elsewhere) with p = 0 at its
    least unknown, in order of the least unknowns: the components of the
    monomial system X U1 = U2 X on all d^2 unknowns that close with phase
    1, in their order and normalization, computed on d per orbit."""
    basis = []
    for orbit, links, slices in _hom_slices(view1, view2, d, L):
        for x in slices:
            cols = [list(x.items())]
            for i, j in links:
                (perm2, e2), s = view2[j], -view1[j][1][orbit[i]]
                cols.append([(perm2[r], (p + e2[r] + s) % L) for r, p in cols[i]])
            comp = {r * d + c: p for c, col in zip(orbit, cols) for r, p in col}
            p0 = comp[min(comp)]
            basis.append({v: (p - p0) % L for v, p in comp.items()} if p0 else comp)
    basis.sort(key=min)
    return basis


def commutant_dim(rep: ProjectiveRep) -> int:
    """Dimension of the commutant of the generator images over the
    cyclotomic field of the phase order rep.L: the number of consistent
    components of the per-orbit systems of `_hom_slices` on rep.exponents.

    Cost: d unknowns per orbit of the permutations, for d = rep.dim, and one
    power of each generator's word per generator that moves the base point,
    by cycles in O(d), shared by orbits that are grown alike; an
    irreducible clock/shift representation has one orbit.  On the block
    form with blocks 1/60 and 1/60 this took 7 ms with a 0.6 MB peak at
    d = 3600, and 1.6 ms at d = 900, on 2 shared vCPUs; d orbits cost
    O(d^2), as the d^2 system did: 900 distinct characters of Z^2 took
    0.31 s, and 450 twists of the block 1/2 0.18 s."""
    rep = _instance(rep, ProjectiveRep)
    return _hom_dim(rep.exponents, rep.exponents, rep.dim, rep.L)


def _fp_root(L: int, d: int, after: int = 0):
    """The least prime p > max(2 d, after) with p = 1 (mod L), and g in F_p of
    exact order L.  Then zeta_L -> g is a ring map Z[zeta_L] -> F_p, and the
    weights 1..2d stay distinct and nonzero mod p."""
    m = max(2 * d, after)
    p = m + 1 + (-m) % L
    while any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        p += L
    primes = [r for r in range(2, L + 1) if L % r == 0 and all(r % k for k in range(2, r))]
    # F_p^* is cyclic of order p - 1, so some h^((p - 1) / L) has order L
    roots = (pow(h, (p - 1) // L, p) for h in range(2, p))
    return p, next(g for g in roots if all(pow(g, L // r, p) != 1 for r in primes))


def _det_mod(vec, d: int, L: int, p: int, g: int) -> int:
    """det X mod p under zeta_L -> g, where X has entry w zeta^e at unknown
    v = r d + c for each v: (w, e) in vec and zeros elsewhere."""
    powers = [pow(g, e, p) for e in range(L)]
    a = [[0] * d for _ in range(d)]
    for v, (w, e) in vec.items():
        a[v // d][v % d] = w * powers[e] % p
    det = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv], det = a[piv], a[col], -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, d):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det


def intertwiner(rep1: ProjectiveRep, rep2: ProjectiveRep):
    """Exact invertible X with X rep1(g) = rep2(g) X on generators when the
    representations are equivalent; None exactly when they are not.

    Distinct lattices or bicharacters are a contract violation (error), not
    a negative answer.  Monomial images with root-of-unity phases generate a
    finite group, so both representations are semisimple, and they are
    equivalent exactly when dim Hom(rep1, rep1) = dim Hom(rep1, rep2) =
    dim Hom(rep2, rep2); each dimension is a count of components of the
    monomial system.  The certificate is X = sum_i w_i C_i over the
    components C_i of Hom(rep1, rep2), first with every weight w_i = 1:
    a support with one entry per row and column is invertible (det = +- a
    product of roots of unity), any other is proved invertible by
    det X != 0 in F_p for a prime p = 1 (mod L), p > 2d, with zeta_L sent
    to an element of order L.  Only when that draw fails are the Hom
    dimensions compared; when they agree, seeded weights from [1, 2d] are
    drawn, each at the next such prime, until det X != 0 mod p, and
    Schwartz-Zippel bounds each failure by 1/2.  X is verified on its
    (weight, exponent) entries and returned as a matrix over Q(zeta_L).

    Cost: each Hom space is solved on d unknowns per orbit of the first
    representation's permutations (`_hom_slices`).  Only the basis of
    Hom(rep1, rep2) is carried from each orbit's base column to its other
    columns; the other two spaces are only counted, and only when the first
    draw is not invertible.  The d x d Q(zeta_L) matrix returned is the
    O(d^2) part: on the block form with blocks 1/60 and 1/60 and a
    conjugated copy, the call took 0.23 s with a 105 MB peak at d = 3600, of
    which the Hom basis was 12 ms, and 22 ms at d = 900, on 2 shared vCPUs.
    A support that is not monomial adds an O(d^3) elimination mod p per
    draw.
    """
    if _instance(rep1, ProjectiveRep).n != _instance(rep2, ProjectiveRep).n:
        raise ValueError("representations of different lattices")
    if rep1.cocycle != rep2.cocycle:
        raise ValueError("cocycle mismatch: distinct bicharacters")
    if rep1.dim != rep2.dim:
        return None
    d = rep1.dim
    L = lcm(rep1.L, rep2.L)
    view1, view2 = ([(perm, [e * (L // rep.L) for e in exps]) for perm, exps in rep.exponents]
                    for rep in (rep1, rep2))
    hom = _hom_basis(view1, view2, d, L)
    vec = {v: (1, e) for comp in hom for v, e in comp.items()}
    monomial = (len(vec) == d and len({v // d for v in vec}) == d
                and len({v % d for v in vec}) == d)
    rng, p = None, 0
    while not monomial:  # draws until det X != 0 mod p; the first has every weight 1
        p, g = _fp_root(L, d, p)
        if _det_mod(vec, d, L, p, g):
            break
        if rng is None:
            if not _hom_dim(view1, view1, d, L) == len(hom) == _hom_dim(view2, view2, d, L):
                return None
            rng = random.Random(0)
        weights = [rng.randint(1, 2 * d) for _ in hom]
        vec = {v: (w, e) for w, comp in zip(weights, hom) for v, e in comp.items()}
    _verify_intertwiner(vec, view1, view2, d, L)
    zero, entries = CycElt.zero(L), {}  # each (weight, exponent) reduced once
    nil = zero.coeffs[0]  # most coefficients are 0: share one Fraction
    X = [[zero] * d for _ in range(d)]
    for v, (w, e) in vec.items():
        if (w, e) not in entries:
            entries[w, e] = _element(L, tuple([Fraction(w * c) if c else nil
                                               for c in _zeta_power(L, e)]))
        X[v // d][v % d] = entries[w, e]
    return X


def _verify_intertwiner(vec, view1, view2, d: int, L: int):
    """X U1 = U2 X for every generator, entry by entry on (weight, exponent)
    pairs, where X has entry w zeta^e at unknown v = r d + c for each
    v: (w, e) in vec and zeros elsewhere.  U is monomial and every weight is
    a positive integer, so each entry of either side is zero or one
    w zeta^e, equal to another exactly when both w and e mod L agree:
    (X U1)[r, inv1(k)] = w zeta^(e + e1[inv1(k)]) and
    (U2 X)[perm2(k), c] = w zeta^(e2[k] + e)."""
    support = [(v // d, v % d, w, e) for v, (w, e) in vec.items()]
    for (perm1, e1), (perm2, e2) in zip(view1, view2):
        inv1 = {k: j for j, k in enumerate(perm1)}
        lhs = {(r, inv1[k]): (w, (e + e1[inv1[k]]) % L) for r, k, w, e in support}
        rhs = {(perm2[k], c): (w, (e2[k] + e) % L) for k, c, w, e in support}
        if lhs != rhs:
            raise AssertionError("intertwiner failed literal verification")
