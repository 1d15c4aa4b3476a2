"""Independent oracles shared by the test modules.

These deliberately avoid the library's own search/walk code paths: the
exhaustive oracle enumerates every matrix mod ell with unit determinant +-1
by dense numpy enumeration, and index oracles enumerate residues directly.
"""

from fractions import Fraction
from itertools import product

import numpy as np


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
