"""Independent oracles shared by the test modules.

These deliberately avoid the library's own search/walk code paths: the
exhaustive oracle enumerates every matrix mod ell with unit determinant +-1
by dense numpy enumeration, and index oracles enumerate residues directly.
The Q(zeta_L) references (sparse elimination and the literal intertwiner
check) do field arithmetic where the library works on phase exponents.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from flattori.cyclotomic import CycElt


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
