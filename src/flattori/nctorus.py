"""Rational noncommutative torus invariants and the isomorphism decision.

The deformation parameter is a rational skew form theta; only the phases
e(theta_ij) matter, so everything is invariant under integer shifts and
GL(n, Z) congruence.  The decision procedure reduces to a finite orbit walk
mod the common denominator ell, with every positive answer shipping an exact
integral certificate (T, shift) that is verified literally before being
returned.

The walk is a bidirectional breadth-first search over the GL(n, Z)-orbit of
ell * theta mod ell.  A state is the strict upper triangle of that
alternating form, a flat tuple of n(n-1)/2 residues.  A generator acts on it
by a few precomputed elementary updates: I + c e_ij changes the n - 2
entries of row/column i, the sign flip of row 0 negates n - 1 entries.
Each visited state keeps only its parent and the index of the generator
that reached it; where the two search trees meet, the two generator words
are multiplied out mod ell into g and h, and h^-1 g is lifted to the
certificate.  The orbit cap counts visited states on both sides together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from .bundles import classify_projflat, direct_sum_power, endo, line_twist_exists
from .cohomology import AltFormZ
from .exact_linalg import (
    IntMatrix,
    SkewRatForm,
    inverse_mod,
    lift_unimodular_mod,
    smith_normal_form,
    symplectic_normal_form,
)
from .projrep import Bicharacter, BilinearCocycle, ProjectiveRep, heisenberg_rep, radical

ORBIT_CAP = 10 ** 6


@dataclass(frozen=True)
class NCTorusParams:
    """C(T^n_theta) tensored with m x m matrices."""

    n: int
    theta: SkewRatForm
    m: int = 1

    def __post_init__(self):
        if self.theta.n != self.n:
            raise ValueError("theta size does not match n")
        if self.m < 1:
            raise ValueError("matrix amplification must be >= 1")


@dataclass(frozen=True)
class NormalFormResult:
    """Certificate T with T theta T^t = [[0, D, 0], [-D, 0, 0], [0, 0, 0]],
    D = diag(blocks) in lowest terms, denominators ascending in divisibility."""

    T: IntMatrix
    blocks: tuple
    free_rank: int

    @property
    def n(self) -> int:
        return self.T.rows

    def block_form(self) -> SkewRatForm:
        n = self.n
        k = len(self.blocks)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, b in enumerate(self.blocks):
            m[i][k + i] = b
            m[k + i][i] = -b
        return SkewRatForm(m)


def q_theta(theta: SkewRatForm) -> int:
    """Square root of the lattice index [(Z^n + im theta) : Z^n].

    Computed by both routes -- the Smith form of the stacked generators and
    the radical index of the bicharacter e(theta) -- which must agree and be
    a perfect square; a failure would falsify the underlying lemma, so it
    aborts loudly."""
    n = theta.n
    ell = theta.common_denominator()
    stacked = IntMatrix([[ell if i == j else 0 for j in range(n)]
                         + list(theta.scaled_int(ell)[i]) for i in range(n)])
    _, D, _ = smith_normal_form(stacked)
    prod = 1
    for i in range(n):
        prod *= D[i][i]
    index = ell ** n // prod

    chi = Bicharacter(theta.mat.entries)
    _, rad_index = radical(chi)
    if index != rad_index:
        raise AssertionError(f"index formulas disagree: {index} vs {rad_index}")
    root = isqrt(index)
    if root * root != index:
        raise AssertionError(f"lattice index {index} is not a perfect square")
    return root


def normal_form(theta: SkewRatForm) -> NormalFormResult:
    """GL(n, Z) block normal form of a rational skew form.

    Blocks are e_i / ell in lowest terms for the alternating divisor chain
    of ell * theta, emitted with ascending denominators (reversed divisor
    order); the certificate is checked literally before returning."""
    n = theta.n
    ell = theta.common_denominator()
    nf = symplectic_normal_form(theta.scaled_int(ell))
    k = len(nf.divisors)
    order = list(range(k - 1, -1, -1))
    perm_rows = []
    for t in order:
        perm_rows.append(2 * t)
    for t in order:
        perm_rows.append(2 * t + 1)
    perm_rows.extend(range(2 * k, n))
    P = IntMatrix([[int(c == r) for c in range(n)] for r in perm_rows])
    T = P @ nf.T
    blocks = tuple(Fraction(nf.divisors[t], ell) for t in order)
    result = NormalFormResult(T=T, blocks=blocks, free_rank=n - 2 * k)
    assert theta.congruence(T) == result.block_form()
    qs = [b.denominator for b in blocks]
    assert all(qs[i + 1] % qs[i] == 0 for i in range(len(qs) - 1))
    prod = 1
    for q in qs:
        prod *= q
    assert prod == q_theta(theta)
    return result


def c1_of_E_theta(theta: SkewRatForm) -> AltFormZ:
    """First Chern class of the canonical projectively flat module bundle:
    q_theta * theta, an integral alternating form (sign fixed as +)."""
    q = q_theta(theta)
    scaled = theta.mat.scale(q)
    if not scaled.is_integral():
        raise AssertionError("q_theta * theta failed to be integral")
    return AltFormZ(scaled.to_int())


def bundle_of(theta: SkewRatForm):
    """Realization data: the rank-q_theta projectively flat vector class, its
    endomorphism matrix-bundle class, and the attached projective
    representation (normalized form transported back along the certificate)."""
    n = theta.n
    q = q_theta(theta)
    vector = classify_projflat(n, q, c1_of_E_theta(theta))
    matrix = endo(vector)
    nf = normal_form(theta)
    base = heisenberg_rep(nf.block_form())
    tinv = nf.T.inverse_unimodular()
    gens = []
    for i in range(n):
        m = base.gens[0] ** tinv[i][0]
        for j in range(1, n):
            m = m @ base.gens[j] ** tinv[i][j]
        gens.append(m)
    rep = ProjectiveRep(gens, BilinearCocycle(theta.upper()))
    assert rep.dim == vector.rank
    return vector, matrix, rep


class IsoStatus(enum.Enum):
    ISO = "iso"
    NOT_ISO = "not-iso"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class IsoDecision:
    status: IsoStatus
    T: IntMatrix | None = None
    shift: IntMatrix | None = None

    @property
    def is_iso(self) -> bool:
        return self.status is IsoStatus.ISO


def _theta_bar(theta: SkewRatForm, ell: int):
    """Walk state of theta: the strict upper triangle of ell * theta mod
    ell, row by row (the same for theta and frac(theta)).  The form is
    alternating mod ell, so this determines it."""
    f = theta.mat
    return tuple(int(f[i][j] * ell) % ell for i, j in combinations(range(theta.n), 2))


def _invariant_chain(f: SkewRatForm, ell: int):
    """Denominators q_i = ell / gcd(e_i, ell) > 1 of the divisor chain of
    ell * f, for f = frac(theta): the finite pairing invariants of the class."""
    divisors = symplectic_normal_form(f.scaled_int(ell)).divisors
    return tuple(ell // gcd(e, ell) for e in divisors if ell // gcd(e, ell) > 1)


def _mat_mul_mod(a, b, ell):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % ell
                       for j in range(n)) for i in range(n))


def _identity(n: int):
    return tuple(tuple(int(r == s) for s in range(n)) for r in range(n))


def _generators(n: int, ell: int):
    """Generators of GL(n, Z) mod ell, as (g, updates) pairs in walk order:
    the elementary E = I + c e_ij (c = +-1), then the sign flip J of row 0.
    Generators equal mod ell to the identity or to an earlier one are
    dropped; they would only revisit states.

    `updates` is the action S -> g S g^t on packed states (`_step`): a tuple
    of (target, source, k) meaning new[target] = old[target] + k old[source].
    E changes only the pairs {i, b}, b not in {i, j}: S'_ib = S_ib + c S_jb,
    and with S_ab = sigma(a, b) packed(a, b) for sigma = +1 above the
    diagonal and -1 below, k = c sigma(i, b) sigma(j, b).  J negates row 0,
    which is k = -2 on each entry (0, b)."""
    pos = {}
    for t, (i, j) in enumerate(combinations(range(n), 2)):
        pos[i, j] = pos[j, i] = t

    def sigma(a, b):
        return 1 if a < b else -1

    gens = []
    known = {_identity(n)}

    def add(rows, updates):
        g = tuple(tuple(r) for r in rows)
        if g not in known:
            known.add(g)
            gens.append((g, updates))

    for i in range(n):
        for j in range(n):
            if i != j:
                for c in (1, -1):
                    e = [list(r) for r in _identity(n)]
                    e[i][j] = c % ell
                    add(e, tuple((pos[i, b], pos[j, b], c * sigma(i, b) * sigma(j, b) % ell)
                                 for b in range(n) if b not in (i, j)))
    flip = [list(r) for r in _identity(n)]
    flip[0][0] = -1 % ell
    add(flip, tuple((pos[0, b], pos[0, b], -2 % ell) for b in range(1, n)))
    return gens


def _step(state, updates, ell):
    """g S g^t mod ell on a packed state, for the updates of g."""
    new = list(state)
    for t, s, k in updates:
        new[t] = (state[t] + k * state[s]) % ell
    return tuple(new)


def _group_element(seen, state, gens, n, ell):
    """g mod ell with g * root * g^t = state, for the root of the search
    tree `seen` (state -> (parent, generator index), root -> None): the
    product of the generator word along the parent pointers."""
    word = []
    while seen[state] is not None:
        state, k = seen[state]
        word.append(k)
    g = _identity(n)
    for k in reversed(word):
        g = _mat_mul_mod(gens[k][0], g, ell)
    return g


def _congruence_search(f1: SkewRatForm, f2: SkewRatForm, ell: int, cap: int):
    """Bidirectional breadth-first orbit walk between the mod-ell reductions,
    expanding the smaller frontier, one level at a time.  States are packed
    upper triangles (`_theta_bar`); each new state records its parent and
    generator, and only where the two trees meet is the group element
    rebuilt from those words.  More than `cap` visited states on both sides
    together gives UNDECIDED.  Returns (status, g mod ell or None)."""
    n = f1.n
    if ell == 1:
        return IsoStatus.ISO, _identity(n)
    s1 = _theta_bar(f1, ell)
    s2 = _theta_bar(f2, ell)
    if s1 == s2:
        return IsoStatus.ISO, _identity(n)
    gens = _generators(n, ell)
    steps = [updates for _, updates in gens]
    fwd = {s1: None}
    bwd = {s2: None}
    frontier_f = [s1]
    frontier_b = [s2]

    def meet(state):
        g = _group_element(fwd, state, gens, n, ell)
        h = _group_element(bwd, state, gens, n, ell)
        hinv = inverse_mod(IntMatrix(h), ell)
        return IsoStatus.ISO, _mat_mul_mod(tuple(hinv.entries), g, ell)

    while True:
        use_fwd = len(frontier_f) <= len(frontier_b)
        frontier, seen, other = ((frontier_f, fwd, bwd) if use_fwd
                                 else (frontier_b, bwd, fwd))
        new_frontier = []
        for state in frontier:
            for k, updates in enumerate(steps):
                ns = _step(state, updates, ell)
                if ns in seen:
                    continue
                seen[ns] = (state, k)
                new_frontier.append(ns)
                if ns in other:
                    return meet(ns)
                if len(fwd) + len(bwd) > cap:
                    return IsoStatus.UNDECIDED, None
        if use_fwd:
            frontier_f = new_frontier
        else:
            frontier_b = new_frontier
        if not new_frontier:
            return IsoStatus.NOT_ISO, None  # an orbit closed


def _certified(theta: SkewRatForm, theta2: SkewRatForm, g, ell) -> IsoDecision:
    T = lift_unimodular_mod(IntMatrix(g), ell)
    diff = theta2.mat - theta.congruence(T).mat
    if not diff.is_integral():
        raise AssertionError("lifted certificate failed literal verification")
    return IsoDecision(IsoStatus.ISO, T=T, shift=diff.to_int())


def _reduced_pair(theta: SkewRatForm, theta2: SkewRatForm):
    """(frac(theta), frac(theta2), ell) with ell the lcm of their
    denominators, the walk modulus; None when q_theta or the finite pairing
    invariants differ, so that no walk is needed."""
    if q_theta(theta) != q_theta(theta2):
        return None
    f1, f2 = theta.frac(), theta2.frac()
    ell = lcm(f1.common_denominator(), f2.common_denominator())
    if _invariant_chain(f1, ell) != _invariant_chain(f2, ell):
        return None
    return f1, f2, ell


def iso_decide(p1: NCTorusParams, p2: NCTorusParams, cap: int = ORBIT_CAP) -> IsoDecision:
    """Decide C(T^n_theta) (x) M_m = C(T^n'_theta') (x) M_m'.

    Pipeline: reject on n or m mismatch; reject if q_theta or the finite
    pairing invariants differ; then the exact mod-ell orbit walk, whose
    positive answers are lifted to integral certificates and verified.
    Exceeding the orbit cap reports UNDECIDED, never a guess."""
    if p1.n != p2.n or p1.m != p2.m:
        return IsoDecision(IsoStatus.NOT_ISO)
    theta, theta2 = p1.theta, p2.theta
    reduced = _reduced_pair(theta, theta2)
    if reduced is None:
        return IsoDecision(IsoStatus.NOT_ISO)
    status, g = _congruence_search(*reduced, cap)
    if status is IsoStatus.ISO:
        return _certified(theta, theta2, g, reduced[2])
    return IsoDecision(status)


def iso_via_bundles(theta: SkewRatForm, theta2: SkewRatForm, m: int = 1,
                    cap: int = ORBIT_CAP) -> IsoDecision:
    """Alternative decision through the bundle classification: after the
    same early rejections as iso_decide, align by the shared congruence
    search, then ask for a line-bundle twist between the m-fold sums.  Must
    agree with iso_decide; the amplification m cancels."""
    if m < 1:
        raise ValueError("matrix amplification must be >= 1")
    reduced = _reduced_pair(theta, theta2) if theta.n == theta2.n else None
    if reduced is None:
        return IsoDecision(IsoStatus.NOT_ISO)
    status, g = _congruence_search(*reduced, cap)
    if status is not IsoStatus.ISO:
        return IsoDecision(status)
    decision = _certified(theta, theta2, g, reduced[2])
    aligned = theta.congruence(decision.T)
    n = theta.n
    e1 = direct_sum_power(classify_projflat(n, q_theta(aligned), c1_of_E_theta(aligned)), m)
    e2 = direct_sum_power(classify_projflat(n, q_theta(theta2), c1_of_E_theta(theta2)), m)
    c_line = line_twist_exists(e1, e2)
    assert c_line is not None, "aligned classes must differ by a line bundle"
    return decision
