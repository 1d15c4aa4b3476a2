"""Independent oracles shared by the test modules.

These deliberately avoid the library's own decision paths: the exhaustive
oracle enumerates every matrix mod ell with unit determinant +-1 by dense
numpy enumeration, the orbit walk explores GL(n, Z)-orbits mod ell by
generators where the library decides from invariants, and index oracles
enumerate residues directly.  The Q(zeta_L) references (products,
differences and inverses of `CycElt`s, which refuse to mix orders L, sparse
elimination, the determinant and the literal intertwiner check) do field
arithmetic where the library works on phase exponents and proves
invertibility by a determinant mod p.  The clutching twist and omega are computed
from the loop sampled in double precision (`loop_matrices`): the winding
number of the LU determinants by phase unwrapping, and the special-unitary
lift stepped one sample at a time, each snapped back to an exact value,
where the library reads both from the loop's integer exponents.
`matrix_violates` checks the factor-of-automorphy cocycle identity on
built matrices, translated and multiplied, where the library composes the
integer permutations and s-exponents they are built from;
`violations_per_pair` composes those words once per pair where the library
gives one verdict per (v1, v2), and `column_exponents` builds each word
column by column where the library writes it in closed form.  `rieffel_N`
builds N^v as a matrix from that word and `literal_N` writes N entry by
entry; `phase_translate`, `matrix_translate` and `matrix_det` are the
translation and determinant of matrices that the library replaced by
reading det N^v, the twist and omega off the word.  `inversion_parity`
counts inversions where the library counts cycles, and `leibniz_det` sums
over permutations where `IntMatrix.det` eliminates.
`matrix_commutation_holds` checks the commutation relations of projective
representation generators on multiplied matrices, where the library
compares integer phase exponents mod L column by column.  `pullback_modq`, the
mod-q pullback, has no library caller; it checks `pullback` commutes with
the reduction mod q, and `has_alternating_lift` decides whether a mod-q
matrix is the reduction of an integral alternating form by building the
one candidate lift.
`iso_via_bundles` cross-checks a positive `iso_decide` answer through the
bundle classification (the aligned classes have equal endomorphism
bundles), and `divisor_congruence` is the decision the
library replaced by its block normal form: both forms over one common ell,
each scaled by units to (+)_j gcd(e_j, ell) J and compared by their unit
ratio.
`FractionPhase` is the Fraction-valued affine phase and `RatMatrix` the
Fraction-valued matrix that the library replaced by integer numerators
over one denominator; `fraction_matrix` reads a skew form as such a
matrix, and `parse_rational` reads a text literal into a Fraction where
the library reads integer numerators over one denominator.
`fraction_congruence`, `fraction_frac` and
`fraction_scaled_int` are the Fraction-matrix skew form operations the
library replaced by integer numerators over one denominator, and
`fraction_radical_index` the cleared-denominator radical of a Fraction
bicharacter matrix mod 1, which a skew form mod Z replaced.  The complex
evaluations of
phases and generalized permutation-phase matrices are numerical
references.
The clock/shift generators are referenced by the construction the library
replaced with one closed-form builder: literal clock and shift matrices,
Kronecker products with identities, and square-and-multiply powers
multiplied out along the rows of an integer matrix; `scalar_mul` scales a
matrix by a phase for these literal relations, and `block_normal_form`
builds the block form of integer (q, p) pairs.  The scalar factor's
values, which the library does not compute, come from its cocycle
recursion walked one step at a time (`scalar_value_loop`), and
`mumford_c1_recursion` is the Chern form by the route the coherence matrix
replaced: those values at the unit vectors, then their translation
increments.  `exponent_view` writes generator images as the integer
(perm, exponent) view that a `ProjectiveRep` keeps.
`monomial_solutions` is the Hom solver the library replaced: one monomial
system X U1 = U2 X on all d^2 unknowns, where the library solves d
unknowns per orbit of U1's permutations by Frobenius reciprocity.
`smith_with_transforms` is the Smith normal form that also tracks the
transforms U and V, and `cofactor_adjugate` the adjugate from n^2 cofactor
determinants; the library replaced them with a Smith form that returns only
the invariant factors and a one-pass fraction-free Gauss-Jordan adjugate.
The library reads q_theta from one Smith form of theta's numerators S.  The
two routes it replaced are the references for q_theta^2, each on the Smith
form above: `stacked_lattice_index`, the index of the lattice spanned by
the stacked 2n x n generators [ell I ; S], and `radical`, the index of the
kernel of S mod ell (`lattice_kernel_mod`, which also returns a basis).
Direct sums and the seeded unimodular sampler build test inputs, and
`cyc_from_phase` writes a root of unity as a `CycElt`, reducing x^k by
Phi_L over Q (`power_mod_phi`) where the library divides in integers.
"""

import cmath
import functools
import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from flattori import autofactor
from flattori.autofactor import AffinePhase, GenPermPhaseMatrix
from flattori.bundles import VectorBundleClass, endo
from flattori.cohomology import AltFormModQ, AltFormZ
from flattori.cyclotomic import CycElt, cyclotomic_polynomial
from flattori.exact_linalg import (
    IntMatrix,
    SkewRatForm,
    _positive,
    _rational,
    inverse_mod,
    symplectic_normal_form,
)
from flattori.nctorus import NCTorusParams, iso_decide, q_theta
from flattori.projrep import ProjectiveRep
from flattori.textio import MatrixFormatError


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


def _rows(m):
    return m.entries if isinstance(m, (IntMatrix, RatMatrix)) else tuple(map(tuple, m))


class RatMatrix:
    """Immutable matrix of exact rationals (ints or Fractions, stored as
    Fractions in lowest terms, so equality is structural).  An IntMatrix
    operand of +, -, @ or == is read as its entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = _rows(entries)
        if any(not isinstance(x, (int, Fraction)) for row in rows for x in row):
            raise ValueError("RatMatrix entries must be ints or Fractions")
        self.entries = tuple(tuple(map(Fraction, row)) for row in rows)
        self.rows, self.cols = len(self.entries), len(self.entries[0])

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return self.entries == _rows(other)

    def __add__(self, other):
        return RatMatrix([[a + b for a, b in zip(r, s, strict=True)]
                          for r, s in zip(self.entries, _rows(other), strict=True)])

    def __sub__(self, other):
        return self + RatMatrix(other).scale(-1)

    def __matmul__(self, other):
        cols = list(zip(*_rows(other)))
        return RatMatrix([[sum((a * b for a, b in zip(row, col, strict=True)), Fraction(0))
                           for col in cols]
                          for row in self.entries])

    def scale(self, k):
        return RatMatrix([[a * k for a in row] for row in self.entries])

    def transpose(self):
        return RatMatrix(zip(*self.entries))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """An integer or p/q text literal as a Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise MatrixFormatError(f"malformed rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise MatrixFormatError(f"zero denominator in literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def fraction_matrix(theta):
    """The Fraction matrix of a skew form S / ell."""
    return RatMatrix([[Fraction(a, theta.ell) for a in row] for row in theta.S.entries])


def theta_bar_state(theta, ell):
    """ell * theta reduced entrywise mod ell (integer representative)."""
    n, mat = theta.n, fraction_matrix(theta)
    return tuple(tuple(int((mat[i][j] * ell) % ell) for j in range(n))
                 for i in range(n))


def brute_force_lattice_index(theta):
    """|(Z^n + im theta) / Z^n| by enumerating image residues at the common
    denominator."""
    n, ell, mat = theta.n, theta.ell, fraction_matrix(theta)
    seen = set()
    for v in product(range(ell), repeat=n):
        img = tuple((sum(mat[i][j] * v[j] for j in range(n))) % 1
                    for i in range(n))
        seen.add(img)
    return len(seen)


def fraction_congruence(T, mat):
    """T * theta * T^t for theta given as a Fraction matrix."""
    return RatMatrix(T) @ mat @ T.transpose()


def fraction_frac(mat):
    """Skew representative mod M_n(Z) of a Fraction matrix: above-diagonal
    entries in [0, 1)."""
    n = mat.rows
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = mat[i][j] % 1
            m[i][j] = f
            m[j][i] = -f
    return RatMatrix(m)


def fraction_scaled_int(mat, ell):
    """ell * theta as an integer matrix; raises ValueError unless ell clears
    the denominators."""
    return IntMatrix([[a * ell for a in row] for row in mat.entries])


def fraction_radical_index(chi):
    """[Z^n : H] for H the radical of a Fraction bicharacter matrix: the
    kernel mod ell of the cleared-denominator integer matrix, ell the least
    common denominator of the entries."""
    ell = math.lcm(*(x.denominator for row in chi for x in row))
    return lattice_kernel_mod(IntMatrix([[x * ell for x in row] for row in chi]), ell)[1]


def lattice_kernel_mod(M, ell):
    """Basis of H = {h in Z^n : M h = 0 mod ell} plus the index [Z^n : H]:
    with U M V = D, H is V diag(ell / gcd(d_i, ell)) Z^n."""
    ell = _positive(ell, "modulus")
    if M.rows != M.cols:
        raise ValueError("square matrix expected")
    n = M.rows
    _, D, V = smith_with_transforms(M)
    mults = [ell // math.gcd(D[i][i], ell) for i in range(n)]
    basis = [IntMatrix([[V[i][j] * mults[j]] for i in range(n)]) for j in range(n)]
    return basis, math.prod(mults)


def radical(chi):
    """Sublattice H = {h : e(h^t chi g) = 1 for all g} of a skew form with
    its index q_theta^2: the kernel of the integer numerators S mod ell,
    which integer shifts of chi do not change."""
    return lattice_kernel_mod(chi.S, chi.ell)


def stacked_lattice_index(theta):
    """[(Z^n + im theta) : Z^n] = q_theta^2 from the Smith form of the
    generators stacked as rows, the 2n x n matrix [ell I ; S]: the lattice
    of the columns of [ell I | S], as S^t = -S."""
    n, ell = theta.n, theta.ell
    stacked = IntMatrix([[ell * (i == j) for j in range(n)] for i in range(n)]
                        + list(theta.S.entries))
    _, D, _ = smith_with_transforms(stacked)
    return ell ** n // math.prod(D[i][i] for i in range(n))


def smith_with_transforms(M):
    """Return (U, D, V), U and V unimodular, U*M*V = D diagonal with
    d_i | d_{i+1} and d_i >= 0."""
    nr, nc = M.rows, M.cols
    a = [list(r) for r in M.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_add(i, j, k):  # row_i += k*row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, k):  # col_i += k*col_j
        for row in a:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # minimal |entry| pivot in the active submatrix, ties lexicographic
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        p = a[t][t]
        clean = True
        for i in range(t + 1, nr):
            q = a[i][t] // p
            if q:
                row_add(i, t, -q)
            if a[i][t]:
                clean = False
        for j in range(t + 1, nc):
            q = a[t][j] // p
            if q:
                col_add(j, t, -q)
            if a[t][j]:
                clean = False
        if not clean:
            continue
        # enforce divisibility into the remaining block
        viol = next(((i, j) for i in range(t + 1, nr) for j in range(t + 1, nc)
                     if a[i][j] % p != 0), None)
        if viol is not None:
            row_add(t, viol[0], 1)
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


def cofactor_adjugate(M):
    """adj M from its n^2 cofactor determinants: adj M @ M = det M * I."""
    n = M.rows
    if n == 1:
        return IntMatrix([[1]])
    m = M.entries
    return IntMatrix([[(-1) ** (i + j) * IntMatrix([r[:i] + r[i + 1:] for k, r in enumerate(m)
                                                    if k != j]).det()
                       for j in range(n)] for i in range(n)])


def random_skew_rat(rng, n, max_den=12, max_num=6):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, max_den)
            num = rng.randint(-max_num, max_num)
            m[i][j] = Fraction(num, den)
            m[j][i] = -m[i][j]
    return SkewRatForm(m)


def _order(a, b) -> int:
    """The common order L of two elements of Q(zeta_L); distinct orders raise."""
    if a.L != b.L:
        raise ValueError(f"elements of Q(zeta_{a.L}) and Q(zeta_{b.L}) do not combine")
    return a.L


def cyc_from_phase(phase, L) -> CycElt:
    """The root of unity e(phase) as an element; phase * L must be integral."""
    L = _positive(L, "order")
    k = _rational(phase) * L
    if k.denominator != 1:
        raise ValueError(f"e({phase}) does not lie in Q(zeta_{L})")
    return CycElt(L, power_mod_phi(k.numerator % L, L))


def power_mod_phi(k, L):
    """x^k mod Phi_L over Q: the Fraction remainder of x^k by long division,
    one leading term at a time, padded to deg Phi_L coefficients."""
    phi = cyclotomic_polynomial(L)
    rem = [Fraction(0)] * k + [Fraction(1)]
    while len(rem) >= len(phi):
        c, shift = rem[-1] / phi[-1], len(rem) - len(phi)
        for i, p in enumerate(phi):
            rem[shift + i] -= c * p
        rem.pop()
    return rem + [Fraction(0)] * (len(phi) - 1 - len(rem))


def cyc_one(L: int) -> CycElt:
    return cyc_from_phase(0, L)


def cyc_sub(a: CycElt, b: CycElt) -> CycElt:
    return CycElt(_order(a, b), [x - y for x, y in zip(a.coeffs, b.coeffs)])


def cyc_mul(a: CycElt, b: CycElt) -> CycElt:
    """Product of power-basis vectors, reduced mod the monic Phi_L."""
    L = _order(a, b)
    phi = cyclotomic_polynomial(L)
    deg = len(phi) - 1
    prod = [Fraction(0)] * (2 * deg - 1) if deg > 0 else []
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            for i in range(deg + 1):
                prod[k - deg + i] -= c * phi[i]
    return CycElt(L, prod[:deg])


def cyc_inverse(a: CycElt) -> CycElt:
    """Extended Euclid against Phi_L (irreducible, so gcd is a constant), one
    leading term at a time, keeping s * a = r (mod Phi_L) and deg s < deg Phi_L."""
    if not any(a.coeffs):
        raise ZeroDivisionError("inverse of zero")
    deg = len(a.coeffs)
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(a.L)], list(a.coeffs)
    s0, s1 = [Fraction(0)] * deg, [Fraction(1)] + [Fraction(0)] * (deg - 1)
    while True:
        while not r1[-1]:
            r1.pop()
        if len(r1) == 1:
            break
        while len(r0) >= len(r1):  # r0 -= c z^k r1 clears its leading term
            c, k = r0[-1] / r1[-1], len(r0) - len(r1)
            for i, x in enumerate(r1):
                r0[k + i] -= c * x
            for i, x in enumerate(s1[:deg - k]):
                s0[k + i] -= c * x
            while not r0[-1]:
                r0.pop()
        r0, s0, r1, s1 = r1, s1, r0, s0
    out = CycElt(a.L, [x / r1[0] for x in s1])
    if cyc_mul(out, a) != cyc_one(a.L):
        raise AssertionError("inverse failed verification")
    return out


def cyc_det(m) -> CycElt:
    """Determinant of a square matrix of CycElt (d >= 1) by Gaussian
    elimination over Q(zeta_L)."""
    L, d = m[0][0].L, len(m)
    a = [row[:] for row in m]
    det = cyc_one(L)
    for col in range(d):
        piv = next((r for r in range(col, d) if any(a[r][col].coeffs)), None)
        if piv is None:
            return CycElt.zero(L)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = cyc_sub(CycElt.zero(L), det)
        det = cyc_mul(det, a[col][col])
        inv = cyc_inverse(a[col][col])
        a[col] = [cyc_mul(inv, x) for x in a[col]]
        for r in range(col + 1, d):
            if any(a[r][col].coeffs):
                f = a[r][col]
                a[r] = [cyc_sub(x, cyc_mul(f, y)) if any(y.coeffs) else x
                        for x, y in zip(a[r], a[col])]
    return det


def cyc_det_nonzero(m) -> bool:
    return any(cyc_det(m).coeffs)


def sparse_rref(rows, nvars: int, L: int):
    """Reduced row echelon form of a sparse system over Q(zeta_L).

    rows: iterable of {column: CycElt}.  Returns (pivots, free_cols) where
    pivots maps a pivot column to its fully reduced row (pivot coefficient 1,
    other keys only at free columns).
    """
    pivots = {}
    queue = [dict(r) for r in rows]
    for row in queue:
        row = {c: v for c, v in row.items() if any(v.coeffs)}
        # reduce against existing pivots until none of its columns is a pivot
        while True:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                break
            f = row.pop(hit)
            for c, v in pivots[hit].items():
                if c == hit:
                    continue
                acc = cyc_sub(row.get(c, CycElt.zero(L)), cyc_mul(f, v))
                if not any(acc.coeffs):
                    row.pop(c, None)
                else:
                    row[c] = acc
        if not row:
            continue
        pc = min(row)
        inv = cyc_inverse(row[pc])
        newrow = {c: cyc_mul(inv, v) for c, v in row.items()}
        newrow[pc] = cyc_one(L)
        # eliminate the new pivot column from the stored pivot rows
        for orow in pivots.values():
            if pc in orow:
                f = orow.pop(pc)
                for c, v in newrow.items():
                    if c == pc:
                        continue
                    acc = cyc_sub(orow.get(c, CycElt.zero(L)), cyc_mul(f, v))
                    if not any(acc.coeffs):
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
        vec[f] = cyc_one(L)
        for pc, row in pivots.items():
            v = row.get(f)
            if v is not None:
                vec[pc] = cyc_sub(CycElt.zero(L), v)
        basis.append(vec)
    return basis


def cyc_intertwines(X, rep1, rep2, L):
    """Literal reference: X U1 = U2 X over Q(zeta_L) for every generator,
    with X a d x d matrix of CycElt and U1, U2 the constant generator images.
    U is monomial, so each entry of either side is one product:
    (X U1)[r, inv1(k)] = X[r, k] u1_inv1(k) and (U2 X)[perm2(k), c] = u2_k X[k, c]."""
    support = [(r, k, x) for r, row in enumerate(X) for k, x in enumerate(row)
               if any(x.coeffs)]
    for g1, g2 in zip(rep1.gens, rep2.gens):
        inv1 = {p: j for j, p in enumerate(g1.perm)}
        u1 = [cyc_from_phase(ph.const, L) for ph in g1.phases]
        u2 = [cyc_from_phase(ph.const, L) for ph in g2.phases]
        lhs = {(r, inv1[k]): cyc_mul(x, u1[inv1[k]]) for r, k, x in support}
        rhs = {(g2.perm[k], c): cyc_mul(u2[k], x) for k, c, x in support}
        if lhs != rhs:
            return False
    return True


UNWRAP_STEP_BOUND = math.pi / 2
SNAP_TOL_TURNS = 1e-6


class UnwrapError(RuntimeError):
    """Phase unwrapping saw a step at or beyond the soundness bound."""


class SnapError(RuntimeError):
    """A numerical value landed too far from every allowed exact value."""


def loop_matrices(F, samples):
    """The clutching loop s -> N_{(0,1)}(s, 0) sampled at s = k/samples,
    k = 0..samples, as a stacked dense (samples + 1, q, q) complex array."""
    sym = rieffel_N(F.q, F.a)
    s = np.arange(samples + 1)[:, None] / samples
    turns = s * [float(p.linear[0]) for p in sym.phases] + [float(p.const) for p in sym.phases]
    mats = np.zeros((samples + 1, F.q, F.q), dtype=complex)
    mats[:, sym.perm, range(F.q)] = np.exp(2j * np.pi * turns)
    return mats


def winding_number(values):
    """Discrete winding number of a closed loop of nonzero complex samples,
    by phase unwrapping; snaps to an exact integer or raises."""
    values = np.asarray(values, dtype=complex)
    if np.any(np.abs(values) == 0):
        raise ValueError("loop passes through zero")
    steps = np.angle(values[1:] / values[:-1])
    if steps.size and np.max(np.abs(steps)) >= UNWRAP_STEP_BOUND:
        raise UnwrapError("phase step at or beyond the unwrapping bound; "
                          "increase the sample count")
    total_turns = float(np.sum(steps)) / (2 * math.pi)
    nearest = round(total_turns)
    if abs(total_turns - nearest) > SNAP_TOL_TURNS:
        raise SnapError(f"winding {total_turns} is not within tolerance of an integer")
    return int(nearest)


def clutching_twist_dense(F, samples):
    """The twist from the sampled loop: the winding number of the LU
    determinants of the stacked q x q loop matrices."""
    return winding_number(np.linalg.det(loop_matrices(F, samples)))


def clutching_omega_loop(F, samples, tol=SNAP_TOL_TURNS):
    """omega from the sampled loop, stepping the special-unitary lift one
    sample at a time: at sample k pick, among the q roots of 1 / det M_k,
    the scalar mu maximizing Re <a_prev, mu M_k>, then snap the endpoint
    defect by an O(q) search over three wraps."""
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


def iso_via_bundles(theta, theta2, m=1):
    """iso_decide for the m-fold amplifications, cross-checked through the
    bundle classification: on a positive answer the aligned projectively
    flat classes of rank q_theta must differ by a line bundle twist, that
    is, have equal endomorphism bundles.  The amplification m cancels:
    mq divides m delta exactly when q divides delta."""
    decision = iso_decide(NCTorusParams(theta.n, theta, m),
                          NCTorusParams(theta2.n, theta2, m))
    if decision.is_iso:
        aligned = theta.congruence(decision.T)
        q = q_theta(theta2)  # iso_decide has shown that aligned shares it
        if q % theta2.ell:
            raise AssertionError("q_theta * theta failed to be integral")
        e1 = VectorBundleClass(q, AltFormZ(aligned.scaled_int(q)))
        e2 = VectorBundleClass(q, AltFormZ(theta2.scaled_int(q)))
        if endo(e1) != endo(e2):
            raise AssertionError("aligned classes must differ by a line bundle")
    return decision


def _unit_to_gcd(e, ell):
    """A unit u mod ell with u * e = gcd(e, ell) mod ell."""
    g = math.gcd(e, ell)
    u = pow(e // g, -1, ell // g)
    while math.gcd(u, ell) != 1:  # some lift of a unit mod ell / g is a unit mod ell
        u += ell // g
    return u


def _divisor_scaled(nf, ell):
    """(rows of M, det M / det T mod ell) for M = T with row 2j scaled by
    _unit_to_gcd(e_j, ell): M S M^t = (+)_j gcd(e_j, ell) J mod ell."""
    rows = [list(r) for r in nf.T.entries]
    units = 1
    for j, e in enumerate(nf.divisors):
        u = _unit_to_gcd(e, ell)
        rows[2 * j] = [u * x % ell for x in rows[2 * j]]
        units = units * u % ell
    return rows, units


def divisor_congruence(theta, theta2):
    """(g, ell) with det g = +-1 and g S g^t = S' mod ell for S = ell
    frac(theta) and S' = ell frac(theta'), ell the lcm of their
    denominators, or None when there is none.  The symplectic divisors e_j
    of both sides give the chains ell / gcd(e_j, ell) > 1, which must agree;
    then both go to N = (+)_j gcd(e_j, ell) J mod ell, and a congruence
    exists exactly when their unit ratio delta is +-1 mod C = ell /
    gcd(e_r, ell) (C = 1 when 2r < n); h scales the first vector of the
    last block, or the last coordinate, by eps delta."""
    f1, f2 = theta.frac(), theta2.frac()
    ell = math.lcm(f1.ell, f2.ell)
    nf1 = symplectic_normal_form(f1.scaled_int(ell))
    nf2 = symplectic_normal_form(f2.scaled_int(ell))
    chains = [tuple(ell // math.gcd(e, ell) for e in nf.divisors if e % ell) for nf in (nf1, nf2)]
    if chains[0] != chains[1]:
        return None
    rows1, units1 = _divisor_scaled(nf1, ell)
    rows2, units2 = _divisor_scaled(nf2, ell)
    n, r = len(rows1), len(nf1.divisors)
    C = ell // math.gcd(nf1.divisors[-1], ell) if 2 * r == n else 1
    delta = units2 * pow(units1, -1, ell)
    eps = next((e for e in (1, -1) if (e * delta - 1) % C == 0), None)
    if eps is None:
        return None
    i = n - 2 if 2 * r == n else n - 1
    rows1[i] = [eps * delta * x % ell for x in rows1[i]]
    return (inverse_mod(IntMatrix(rows2), ell) @ IntMatrix(rows1)).mod(ell), ell


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
    f = fraction_matrix(theta)
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


def inversion_parity(perm):
    """Parity of a permutation as its number of inversions mod 2."""
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j]) % 2


def leibniz_det(M):
    """Determinant of a square IntMatrix as the Leibniz sum over
    permutations, each signed by `inversion_parity`, where the library runs
    Bareiss elimination."""
    rows = M.entries
    total = 0
    for perm in permutations(range(len(rows))):
        term = math.prod(row[j] for row, j in zip(rows, perm))
        if term:
            total += -term if inversion_parity(perm) else term
    return total


def matrix_det(m):
    """Determinant of a generalized permutation-phase matrix as an
    AffinePhase: the permutation sign, by inversions, as the constant
    (parity)/2 plus every phase."""
    sign = AffinePhase((0,) * len(m.phases[0].nums), Fraction(inversion_parity(m.perm), 2))
    return sum(m.phases, sign)


def fraction_det(perm, phases):
    """Determinant of a generalized permutation-phase matrix as a
    FractionPhase: the permutation sign as the constant (parity)/2 plus every
    phase."""
    total = FractionPhase((0,) * len(phases[0].linear), Fraction(inversion_parity(perm), 2))
    for p in phases:
        total = total + p
    return total


def pullback_modq(beta, P):
    """Pullback of a mod-q class along a lattice map P, as P^t beta P."""
    if P.rows != beta.n:
        raise ValueError("lattice map shape mismatch")
    return AltFormModQ(P.transpose() @ beta.mat @ P, beta.modulus)


def has_alternating_lift(mat, q) -> bool:
    """Whether an integral alternating form reduces to mat mod q.  If one
    does, so does the form that keeps mat's upper triangle, negates it below
    and has a zero diagonal, so that one lift decides."""
    n = len(mat)
    lift = IntMatrix([[mat[i][j] if i < j else -mat[j][i] if i > j else 0 for j in range(n)]
                      for i in range(n)])
    return lift.mod(q) == IntMatrix(mat).mod(q)


def matrix_violates(value, g1, g2):
    """Whether N_{g1+g2}(x) = N_{g1}(x+g2) N_{g2}(x) fails, on built matrices
    (value maps gamma to N_gamma): the values, a translate and a product of
    generalized permutation-phase matrices."""
    return value((g1[0] + g2[0], g1[1] + g2[1])) != matrix_translate(value(g1), g2) @ value(g2)


def column_exponents(q, a, v):
    """The word of N^v column by column, as the library built it before its
    closed form: perm[j] = (j - v) mod q and ls[j] = -a times the number of
    passes of j, j - 1, ..., j - v + 1 through column 0."""
    return (tuple([(j - v) % q for j in range(q)]),
            tuple([-a * ((v + q - 1 - j) // q) for j in range(q)]))


def violations_per_pair(F, pairs):
    """The pairs (g1, g2) where N_{g1+g2}(x) = N_{g1}(x+g2) N_{g2}(x) fails,
    one composition per pair, on the library's words
    (`autofactor._rieffel_exponents`, read on each call) built once per v,
    as the library checked before it gave one verdict per (v1, v2)."""
    N = {v: autofactor._rieffel_exponents(F.q, F.a, v)
         for v in {v for g1, g2 in pairs for v in (g1[1], g2[1], g1[1] + g2[1])}}
    bad = []
    for g1, g2 in pairs:
        (p1, l1), (p2, l2) = N[g1[1]], N[g2[1]]
        if N[g1[1] + g2[1]] != (tuple([p1[k] for k in p2]),
                                tuple([l1[k] + l for k, l in zip(p2, l2)])):
            bad.append((g1, g2))
    return bad


def matrix_commutation_holds(gens, chi):
    """Whether U_j U_i = chi(e_j, e_i) U_i U_j for every i < j, on products
    of generalized permutation-phase matrices and a scalar phase."""
    return all(gens[j] @ gens[i] == scalar_mul(
        gens[i] @ gens[j], AffinePhase((), Fraction(chi.S[j][i], chi.ell)))
        for j in range(len(gens)) for i in range(j))


def phase_translate(p, gamma):
    """The phase p at x + gamma: the constant moves by linear . gamma."""
    if len(gamma) != len(p.nums):
        raise ValueError("translation dimension mismatch")
    return AffinePhase(p.linear, p.const + sum(l * _rational(g) for l, g in zip(p.linear, gamma)))


@functools.lru_cache(maxsize=1024)
def matrix_translate(m, gamma):
    """The generalized permutation-phase matrix m at x + gamma (a tuple),
    phase by phase; cached, since a cocycle sweep translates each value by
    each vector many times."""
    return GenPermPhaseMatrix(m.perm, [phase_translate(p, gamma) for p in m.phases])


def rieffel_N(q, a, v=1):
    """N^v as a generalized permutation-phase matrix, built from the word the
    library keeps (`autofactor._rieffel_exponents`, read on each call):
    entry (perm[j], j) is e(l_j s)."""
    perm, ls = autofactor._rieffel_exponents(q, a, v)
    return GenPermPhaseMatrix(perm, [AffinePhase((l, 0), 0) for l in ls])


def literal_N(q, a):
    """N entry by entry: ones on the superdiagonal, e(-a s) bottom-left."""
    return GenPermPhaseMatrix([q - 1] + list(range(q - 1)),
                              [AffinePhase((-a, 0), 0)] + [zero_phase(2)] * (q - 1))


def scalar_mul(m, phase):
    """The generalized permutation-phase matrix m times the scalar e(phase)."""
    return GenPermPhaseMatrix(m.perm, [p + phase for p in m.phases])


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
    out = identity_matrix(g.size, len(g.phases[0].nums))
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


def block_normal_form(pairs, n=None):
    """The skew form [[0, D, 0], [-D, 0, 0], [0, 0, 0]] of size n (default
    2k) with D = diag(p_t / q_t) for the k pairs (q_t, p_t)."""
    k = len(pairs)
    n = 2 * k if n is None else n
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, (q, p) in enumerate(pairs):
        m[i][k + i] = Fraction(p, q)
        m[k + i][i] = -Fraction(p, q)
    return SkewRatForm(m)


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
        gi = f.phases[i] if g > 0 else -phase_translate(f.phases[i], step)
        for _ in range(abs(g)):
            acc = phase_translate(acc, step) + gi
    return acc


def mumford_c1_recursion(f):
    """Chern form of a scalar factor from its values f_(e_i) at the unit
    vectors (`scalar_value_loop`): entry (i, j) is the exact increment
    f_(e_j)(x + e_i) - f_(e_j)(x) minus f_(e_i)(x + e_j) - f_(e_i)(x), each
    certified x-independent and equal mod 1 to translating and subtracting."""
    basis = [tuple(int(i == k) for k in range(f.n)) for i in range(f.n)]
    vals = [scalar_value_loop(f, e) for e in basis]

    def increment(phase, delta):
        inc = sum(l * d for l, d in zip(phase.linear, delta))
        moved = phase_translate(phase, delta) - phase
        if any(moved.linear) or (moved.const - inc) % 1:
            raise AssertionError("translation increment disagrees with translate")
        return inc

    mat = [[increment(vj, ei) - increment(vi, ej) for ej, vj in zip(basis, vals)]
           for ei, vi in zip(basis, vals)]
    if any(c.denominator != 1 for row in mat for c in row):
        raise ValueError("factor exponents do not define an integral class")
    return AltFormZ([[int(c) for c in row] for row in mat])


def exponent_view(gens, L):
    """Each constant generalized permutation-phase image as (perm, e) with
    entry (perm[c], c) equal to zeta_L^e[c]; L must be a multiple of every
    phase denominator."""
    return tuple((g.perm, tuple(ph.const.numerator * (L // ph.const.denominator)
                                for ph in g.phases)) for g in gens)


def monomial_solutions(view1, view2, d: int, L: int):
    """Basis of {X : X U1_i = U2_i X} over Q(zeta_L) for paired exponent
    views of generalized permutation-phase images of size d, on all d^2
    unknowns.

    Unknown v = r d + c is X[r, c].  With U e_c = zeta^e[c] e_perm(c), entry
    (perm2(r), c) of X U1 = U2 X reads
    zeta^e1[c] X[perm2(r), perm1(c)] = zeta^e2[r] X[r, c],
    so every equation ties exactly two unknowns by a root of unity.
    Propagating x_v = zeta^p(v) x_root from the first unknown of each
    connected component fixes p(v) mod L; every further equation closes a
    cycle, and one that closes with zeta^m != 1 forces the component to
    zero.  Returns the consistent components in order of their first
    unknown, each as {v: p(v)} with p = 0 at the first unknown."""
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
