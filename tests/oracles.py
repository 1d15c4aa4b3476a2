"""Independent oracles shared by the test modules.

These deliberately avoid the library's own decision paths: the exhaustive
oracle enumerates every matrix mod ell with unit determinant +-1 by dense
numpy enumeration, the orbit walk explores GL(n, Z)-orbits mod ell by
generators where the library decides from invariants, and index oracles
enumerate residues directly.  The Q(zeta_L) references (sparse elimination
and the literal intertwiner check) do field arithmetic where the library
works on phase exponents.  The clutching continuation is the per-sample
loop the library replaced by one vectorized step.  `FractionPhase` is the
Fraction-valued affine phase the library replaced by integer numerators
over one denominator, and the complex evaluations of phases and
generalized permutation-phase matrices are numerical references.  The
clock/shift generators are referenced by the construction the library
replaced with one closed-form builder: literal clock and shift matrices,
Kronecker products with identities, and square-and-multiply powers
multiplied out along the rows of an integer matrix.  The scalar factor's
cocycle recursion, walked one step at a time, references its closed form.
Direct sums and the seeded unimodular sampler build test inputs.
"""

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from flattori.autofactor import AffinePhase, GenPermPhaseMatrix
from flattori.cyclotomic import CycElt
from flattori.exact_linalg import IntMatrix, inverse_mod
from flattori.projrep import ProjectiveRep


def _dets_vectorized(G):
    n = G.shape[1]
    if n == 1:
        return G[:, 0, 0].astype(np.int64)
    if n == 2:
        g = G.astype(np.int64)
        return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    if n == 3:
        g = G.astype(np.int64)
        return (g[:, 0, 0] * (g[:, 1, 1] * g[:, 2, 2] - g[:, 1, 2] * g[:, 2, 1])
                - g[:, 0, 1] * (g[:, 1, 0] * g[:, 2, 2] - g[:, 1, 2] * g[:, 2, 0])
                + g[:, 0, 2] * (g[:, 1, 0] * g[:, 2, 1] - g[:, 1, 1] * g[:, 2, 0]))
    raise ValueError("oracle supports n <= 3")


def all_unit_matrices(n, ell, chunk=1 << 20):
    """Every g in M_n(Z/ell) with det = +-1 (mod ell), as one int64 array."""
    total = ell ** (n * n)
    keep = []
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((ids.size, n * n), dtype=np.int64)
        rem = ids.copy()
        for k in range(n * n):
            digits[:, k] = rem % ell
            rem //= ell
        G = digits.reshape(-1, n, n)
        d = _dets_vectorized(G) % ell
        mask = (d == 1 % ell) | (d == (-1) % ell)
        if mask.any():
            keep.append(G[mask])
    return np.concatenate(keep) if keep else np.empty((0, n, n), dtype=np.int64)


def orbit_of(state, units, ell):
    """All g state g^t mod ell over the given unit matrices, as a set of bytes.

    Each row of entries in [0, ell) is packed into one int64 key (base ell)
    so that the deduplication sorts integers, not records."""
    M = np.asarray(state, dtype=np.int64)
    transformed = (units @ M @ units.transpose(0, 2, 1)) % ell
    flat = transformed.reshape(transformed.shape[0], -1)
    if ell ** flat.shape[1] > np.iinfo(np.int64).max:
        raise ValueError("orbit keys overflow int64")
    keys = flat @ ell ** np.arange(flat.shape[1], dtype=np.int64)
    _, first = np.unique(keys, return_index=True)
    return {row.tobytes() for row in flat[first].astype(np.int16)}


def state_key(state):
    return np.asarray(state, dtype=np.int16).reshape(-1).tobytes()


def theta_bar_state(theta, ell):
    """ell * theta reduced entrywise mod ell (integer representative)."""
    n = theta.n
    return tuple(tuple(int((theta.mat[i][j] * ell) % ell) for j in range(n))
                 for i in range(n))


def brute_force_lattice_index(theta):
    """|(Z^n + im theta) / Z^n| by enumerating image residues at the common
    denominator."""
    n = theta.n
    ell = theta.common_denominator()
    seen = set()
    for v in product(range(ell), repeat=n):
        img = tuple((sum(theta.mat[i][j] * v[j] for j in range(n))) % 1
                    for i in range(n))
        seen.add(img)
    return len(seen)


def random_skew_rat(rng, n, max_den=12, max_num=6):
    from flattori.exact_linalg import SkewRatForm

    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, max_den)
            num = rng.randint(-max_num, max_num)
            m[i][j] = Fraction(num, den)
            m[j][i] = -m[i][j]
    return SkewRatForm(m)


def sparse_rref(rows, nvars: int, L: int):
    """Reduced row echelon form of a sparse system over Q(zeta_L).

    rows: iterable of {column: CycElt}.  Returns (pivots, free_cols) where
    pivots maps a pivot column to its fully reduced row (pivot coefficient 1,
    other keys only at free columns).
    """
    pivots = {}
    queue = [dict(r) for r in rows]
    for row in queue:
        row = {c: v for c, v in row.items() if not v.is_zero()}
        # reduce against existing pivots until none of its columns is a pivot
        while True:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                break
            f = row.pop(hit)
            for c, v in pivots[hit].items():
                if c == hit:
                    continue
                acc = row.get(c, CycElt.zero(L)) - f * v
                if acc.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = acc
        if not row:
            continue
        pc = min(row)
        inv = row[pc].inverse()
        newrow = {c: inv * v for c, v in row.items()}
        newrow[pc] = CycElt.one(L)
        # eliminate the new pivot column from the stored pivot rows
        for orow in pivots.values():
            if pc in orow:
                f = orow.pop(pc)
                for c, v in newrow.items():
                    if c == pc:
                        continue
                    acc = orow.get(c, CycElt.zero(L)) - f * v
                    if acc.is_zero():
                        orow.pop(c, None)
                    else:
                        orow[c] = acc
        pivots[pc] = newrow
    free = [c for c in range(nvars) if c not in pivots]
    return pivots, free


def nullspace(rows, nvars: int, L: int):
    """Basis of the solution space of a sparse homogeneous system, as dense
    CycElt vectors."""
    pivots, free = sparse_rref(rows, nvars, L)
    basis = []
    for f in free:
        vec = [CycElt.zero(L)] * nvars
        vec[f] = CycElt.one(L)
        for pc, row in pivots.items():
            v = row.get(f)
            if v is not None:
                vec[pc] = CycElt.zero(L) - v
        basis.append(vec)
    return basis


def cyc_intertwines(X, rep1, rep2, L):
    """Literal reference: X U1 = U2 X over Q(zeta_L) for every generator,
    with X a d x d matrix of CycElt and U1, U2 the constant generator images.
    U is monomial, so each entry of either side is one product:
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
            return False
    return True


def clutching_omega_loop(F, samples, tol=1e-6):
    """clutching_omega by stepping the special-unitary lift one sample at a
    time: at sample k pick, among the q roots of 1 / det M_k, the scalar mu
    maximizing Re <a_prev, mu M_k>, then snap the endpoint defect by an
    O(q) search over three wraps."""
    from flattori.autofactor import SnapError, loop_matrices
    from flattori.cohomology import RootOfUnity

    q = F.q
    mats = loop_matrices(F, samples)
    dets = np.linalg.det(mats)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    mu = np.exp(-1j * np.angle(dets[0]) / q)
    a_first = mu * mats[0]
    a_prev = a_first
    for k in range(1, samples + 1):
        base = np.exp(-1j * np.angle(dets[k]) / q)
        t = np.einsum("ij,ij->", a_prev.conj(), mats[k])
        cand = base * roots
        mu = cand[np.argmax((cand * t).real)]
        a_prev = mu * mats[k]
    zeta = np.einsum("ij,ij->", a_first, a_prev.conj()) / q
    turns = (math.atan2(zeta.imag, zeta.real) / (2 * math.pi)) % 1.0

    def dist(c):
        return min(abs(turns - c / q), abs(turns - c / q + 1), abs(turns - c / q - 1))

    best = min(range(q), key=dist)
    if dist(best) > tol:
        raise SnapError(f"endpoint defect {turns} turns is not within {tol} of mu_{q}")
    return RootOfUnity(Fraction(best, q))


def pfaffian(S):
    """Pfaffian of an even skew integer matrix, by expansion along row 0."""
    n = len(S)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        if S[0][j]:
            rest = [k for k in range(1, n) if k != j]
            minor = [[S[a][b] for b in rest] for a in rest]
            total += (-1) ** (j + 1) * S[0][j] * pfaffian(minor)
    return total


# -- orbit walk reference ------------------------------------------------
#
# A bidirectional breadth-first search over the GL(n, Z)-orbit of
# ell * theta mod ell.  A state is the strict upper triangle of that
# alternating form, a flat tuple of n(n-1)/2 residues.  A generator acts on
# it by a few precomputed elementary updates: I + c e_ij changes the n - 2
# entries of row/column i, the sign flip of row 0 negates n - 1 entries.
# Each visited state keeps only its parent and the index of the generator
# that reached it; where the two search trees meet, the two generator words
# are multiplied out mod ell into g and h, and h^-1 g is the answer.  The
# cap counts visited states on both sides together.

def theta_bar(theta, ell):
    """Walk state of theta: the strict upper triangle of ell * theta mod
    ell, row by row (the same for theta and frac(theta)).  The form is
    alternating mod ell, so this determines it."""
    f = theta.mat
    return tuple(int(f[i][j] * ell) % ell for i, j in combinations(range(theta.n), 2))


def _mat_mul_mod(a, b, ell):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % ell
                       for j in range(n)) for i in range(n))


def identity(n):
    return tuple(tuple(int(r == s) for s in range(n)) for r in range(n))


def generators(n, ell):
    """Generators of GL(n, Z) mod ell, as (g, updates) pairs in walk order:
    the elementary E = I + c e_ij (c = +-1), then the sign flip J of row 0.
    Generators equal mod ell to the identity or to an earlier one are
    dropped; they would only revisit states.

    `updates` is the action S -> g S g^t on packed states (`step`): a tuple
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
    known = {identity(n)}

    def add(rows, updates):
        g = tuple(tuple(r) for r in rows)
        if g not in known:
            known.add(g)
            gens.append((g, updates))

    for i in range(n):
        for j in range(n):
            if i != j:
                for c in (1, -1):
                    e = [list(r) for r in identity(n)]
                    e[i][j] = c % ell
                    add(e, tuple((pos[i, b], pos[j, b], c * sigma(i, b) * sigma(j, b) % ell)
                                 for b in range(n) if b not in (i, j)))
    flip = [list(r) for r in identity(n)]
    flip[0][0] = -1 % ell
    add(flip, tuple((pos[0, b], pos[0, b], -2 % ell) for b in range(1, n)))
    return gens


def step(state, updates, ell):
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
    g = identity(n)
    for k in reversed(word):
        g = _mat_mul_mod(gens[k][0], g, ell)
    return g


def congruence_search(f1, f2, ell, cap=10 ** 6):
    """Bidirectional breadth-first orbit walk between the mod-ell reductions
    of two skew forms, expanding the smaller frontier one level at a time.
    Returns (True, g mod ell) when they meet, (False, None) when an orbit
    closes without meeting, and (None, None) past `cap` visited states."""
    n = f1.n
    s1 = theta_bar(f1, ell)
    s2 = theta_bar(f2, ell)
    if ell == 1 or s1 == s2:
        return True, identity(n)
    gens = generators(n, ell)
    steps = [updates for _, updates in gens]
    fwd = {s1: None}
    bwd = {s2: None}
    frontier_f = [s1]
    frontier_b = [s2]

    def meet(state):
        g = _group_element(fwd, state, gens, n, ell)
        h = _group_element(bwd, state, gens, n, ell)
        hinv = inverse_mod(IntMatrix(h), ell)
        return True, _mat_mul_mod(tuple(hinv.entries), g, ell)

    while True:
        use_fwd = len(frontier_f) <= len(frontier_b)
        frontier, seen, other = ((frontier_f, fwd, bwd) if use_fwd
                                 else (frontier_b, bwd, fwd))
        new_frontier = []
        for state in frontier:
            for k, updates in enumerate(steps):
                ns = step(state, updates, ell)
                if ns in seen:
                    continue
                seen[ns] = (state, k)
                new_frontier.append(ns)
                if ns in other:
                    return meet(ns)
                if len(fwd) + len(bwd) > cap:
                    return None, None
        if use_fwd:
            frontier_f = new_frontier
        else:
            frontier_b = new_frontier
        if not new_frontier:
            return False, None  # an orbit closed


def orbit_labels(n, ell):
    """Orbit of every packed state mod ell under the walk's generators:
    labels[index] is the smallest index in the orbit of the state whose
    base-ell digits are `index` (entry t of the packed state is digit t).
    Each generator acts linearly on packed states, so labels propagate as
    numpy gathers; the generators include their inverses, so propagating
    minima from images alone reaches the orbit minimum."""
    m = n * (n - 1) // 2
    total = ell ** m
    ids = np.arange(total, dtype=np.int64)
    digits = np.stack([(ids // ell ** t) % ell for t in range(m)], axis=1)
    weights = ell ** np.arange(m, dtype=np.int64)
    images = []
    for _, updates in generators(n, ell):
        new = digits.copy()
        for t, s, k in updates:
            new[:, t] = (digits[:, t] + k * digits[:, s]) % ell
        images.append((new @ weights).astype(np.int32))
    labels = ids.astype(np.int32)
    while True:
        before = labels
        for img in images:
            labels = np.minimum(labels, labels[img])
        labels = labels[labels]  # a label is a member of the same orbit
        if np.array_equal(labels, before):
            return labels


class FractionPhase:
    """e(linear . x + const) with Fraction coefficients, const reduced mod 1:
    the representation `AffinePhase` had before it stored integer numerators."""

    def __init__(self, linear, const):
        self.linear = tuple(Fraction(c) for c in linear)
        self.const = Fraction(const) % 1

    def __eq__(self, other):
        return (self.linear, self.const) == (other.linear, other.const)

    def __hash__(self):
        return hash((self.linear, self.const))

    def __add__(self, other):
        if len(self.linear) != len(other.linear):
            raise ValueError("phase dimension mismatch")
        return FractionPhase(tuple(a + b for a, b in zip(self.linear, other.linear)),
                             self.const + other.const)

    def __neg__(self):
        return FractionPhase(tuple(-a for a in self.linear), -self.const)

    def __sub__(self, other):
        return self + (-other)

    def translate(self, gamma):
        shift = sum((l * Fraction(g) for l, g in zip(self.linear, gamma)), Fraction(0))
        return FractionPhase(self.linear, self.const + shift)


def fraction_det(perm, phases):
    """Determinant of a generalized permutation-phase matrix as a
    FractionPhase: the permutation sign as the constant (parity)/2 plus every
    phase."""
    parity = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                 if perm[i] > perm[j]) % 2
    total = FractionPhase((0,) * len(phases[0].linear), Fraction(parity, 2))
    for p in phases:
        total = total + p
    return total


def matrix_direct_sum(a, b):
    """Block-diagonal sum of two generalized permutation-phase matrices."""
    return GenPermPhaseMatrix(list(a.perm) + [a.size + p for p in b.perm],
                              a.phases + b.phases)


def rep_direct_sum(rep1, rep2):
    """Direct sum of two projective representations of one cocycle."""
    if rep1.cocycle != rep2.cocycle:
        raise ValueError("direct sum needs equal cocycles")
    return ProjectiveRep([matrix_direct_sum(a, b) for a, b in zip(rep1.gens, rep2.gens)],
                         rep1.cocycle)


def zero_phase(dim):
    """The phase e(0) in dim variables."""
    return AffinePhase((0,) * dim, 0)


def identity_matrix(q, dim=0):
    """The q x q identity, its phases in dim variables."""
    return GenPermPhaseMatrix(range(q), [zero_phase(dim)] * q)


def matrix_power(g, v):
    """g ** v by square-and-multiply: O(log |v|) products."""
    base = g if v >= 0 else g.inverse()
    out = identity_matrix(g.size, g.dim)
    v = abs(v)
    while v:
        if v & 1:
            out = out @ base
        v >>= 1
        if v:
            base = base @ base
    return out


def kron(a, b):
    """Kronecker product a (x) b: column j1 * b.size + j2 goes to row
    a.perm[j1] * b.size + b.perm[j2] with phase a.phases[j1] + b.phases[j2]."""
    q2 = b.size
    perm = []
    phases = []
    for j1 in range(a.size):
        for j2 in range(q2):
            perm.append(a.perm[j1] * q2 + b.perm[j2])
            phases.append(a.phases[j1] + b.phases[j2])
    return GenPermPhaseMatrix(perm, phases)


def literal_clock_shift(q, p):
    """Clock U = diag(e(p j / q)) and shift V e_j = e_(j-1), entry by entry."""
    U = GenPermPhaseMatrix(range(q), [AffinePhase((), Fraction(p * j, q)) for j in range(q)])
    V = GenPermPhaseMatrix([(j - 1) % q for j in range(q)], [AffinePhase((), 0)] * q)
    return U, V


def kron_power_words(pairs, rows):
    """The generators V_t and U_t of the blocks (q_t, p_t) as Kronecker
    products with identities (shift at block t for direction t, clock for
    direction k + t, identity for a free direction), then for each row r the
    product over directions i of gens[i] ** r[i]."""
    k = len(pairs)
    literal = [literal_clock_shift(q, p) for q, p in pairs]
    gens = []
    for i in range(len(rows[0]) if rows else 0):
        m = identity_matrix(1)
        for t, (q, _) in enumerate(pairs):
            if i == t:
                f = literal[t][1]
            elif i == k + t:
                f = literal[t][0]
            else:
                f = identity_matrix(q)
            m = kron(m, f)
        gens.append(m)
    words = []
    for r in rows:
        m = matrix_power(gens[0], r[0])
        for g, v in zip(gens[1:], r[1:]):
            m = m @ matrix_power(g, v)
        words.append(m)
    return words


def scalar_value_loop(f, gamma):
    """ScalarFactor value by the recursion f_(gamma + e)(x) = f_gamma(x + e)
    + f_e(x), one step of +-e_i at a time, coordinate by coordinate."""
    n = f.n
    acc = zero_phase(n)
    for i, g in enumerate(gamma):
        step = [int(k == i) * (1 if g > 0 else -1) for k in range(n)]
        gi = f.phases[i] if g > 0 else -f.phases[i].translate(step)
        for _ in range(abs(g)):
            acc = acc.translate(step) + gi
    return acc


def phase_complex(phase, x):
    """Numerical value of an affine phase at a real point x."""
    t = sum(float(l) * float(v) for l, v in zip(phase.linear, x)) + float(phase.const)
    return cmath.exp(2j * math.pi * t)


def matrix_complex(m, x=()):
    """Dense complex array of a generalized permutation-phase matrix at x."""
    out = np.zeros((m.size, m.size), dtype=complex)
    for j, ph in enumerate(m.phases):
        out[m.perm[j], j] = phase_complex(ph, x)
    return out


def unimodular_sample(n: int, seed: int, word_length: int) -> IntMatrix:
    """Deterministic pseudo-random element of GL(n, Z): a product of
    word_length elementary transvections E_ij(+-1) and sign flips."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if word_length < 0:
        raise ValueError("word length must be nonnegative")
    rng = random.Random(seed)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(word_length):
        if n == 1 or rng.random() < 0.25:
            i = rng.randrange(n)
            m[i] = [-x for x in m[i]]
        else:
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            c = rng.choice((1, -1))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return IntMatrix(m)
