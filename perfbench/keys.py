"""Answer keys for the benchmark.

Plain int/Fraction arithmetic written for the benchmark alone (numpy only
for the numeric intertwiner check): no normal form, orbit walk or Smith
reduction of flattori is called here, so a wrong answer from the library
cannot be confirmed by the same code that made it.
Matrices are lists (or tuples) of rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

import numpy as np


def det(m) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p = a[col][col]
        out *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sign * out


def congruence(T, theta):
    """T theta T^t."""
    n = len(T)
    tt = [[sum(T[i][k] * theta[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(tt[i][k] * T[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def is_integral(m) -> bool:
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def block_form(n: int, blocks):
    """[[0, D, 0], [-D, 0, 0], [0, 0, 0]] with D = diag(blocks)."""
    k = len(blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, b in enumerate(blocks):
        m[i][k + i] = Fraction(b)
        m[k + i][i] = -Fraction(b)
    return m


def certificate_error(theta, theta2, T, shift=None):
    """Why (T, shift) fails to certify theta2 = T theta T^t + shift, or None.

    T must be integral with |det T| = 1 and theta2 - T theta T^t integral;
    a given shift must equal that difference."""
    if not is_integral(T):
        return "certificate T is not integral"
    if abs(det(T)) != 1:
        return "certificate T is not unimodular"
    diff = [[Fraction(a) - b for a, b in zip(r2, r1)]
            for r2, r1 in zip(theta2, congruence(T, theta))]
    if not is_integral(diff):
        return "theta' - T theta T^t is not integral"
    if shift is not None and [[Fraction(x) for x in row] for row in shift] != diff:
        return "reported shift differs from theta' - T theta T^t"
    return None


def normal_form_error(theta, T, blocks, free_rank, q):
    """Why a block normal form record fails, or None: T unimodular, T theta
    T^t literally the block form of the reported blocks, free rank
    consistent, and the block denominators multiplying to q."""
    n = len(theta)
    if not is_integral(T) or abs(det(T)) != 1:
        return "normal form certificate is not unimodular"
    if free_rank != n - 2 * len(blocks):
        return "free rank does not match the block count"
    if congruence(T, theta) != block_form(n, blocks):
        return "T theta T^t is not the reported block form"
    prod = 1
    for b in blocks:
        prod *= Fraction(b).denominator
    if prod != q:
        return f"block denominators multiply to {prod}, expected q_theta {q}"
    return None


def pfaffian4(a):
    return a[0][1] * a[2][3] - a[0][2] * a[1][3] + a[0][3] * a[1][2]


def pfaffian_rule_iso(a, b, ell: int) -> bool:
    """Congruence of two nondegenerate alternating 4 x 4 forms mod a prime
    ell under matrices of determinant +-1: Pf(g a g^t) = det(g) Pf(a) and all
    nondegenerate forms are congruent over the field, so the classes are
    exactly the Pfaffians up to sign."""
    pa, pb = pfaffian4(a) % ell, pfaffian4(b) % ell
    if pa == 0 or pb == 0:
        raise ValueError("the Pfaffian rule needs nondegenerate forms")
    return pb in (pa, (-pa) % ell)


def scaled_int(theta):
    """(ell, ell * theta) for the common denominator ell of theta."""
    ell = lcm(*(Fraction(x).denominator for row in theta for x in row))
    return ell, [[int(Fraction(x) * ell) for x in row] for row in theta]


def _minor_gcd(a, k: int) -> int:
    n = len(a)
    g = 0
    for rows in combinations(range(n), k):
        for cols in combinations(range(n), k):
            g = gcd(g, int(det([[a[r][c] for c in cols] for r in rows])))
    return g


def q_theta(theta) -> int:
    """Square root of [(Z^n + theta Z^n) : Z^n] from determinantal divisors.

    With A = ell * theta integral, the index is the size of the image of A
    in (Z/ell)^n, which is the product of ell / gcd(d_i, ell) over the
    invariant factors d_i = D_i / D_(i-1) of A (D_i the gcd of the i x i
    minors; d_i = 0 past the rank)."""
    ell, a = scaled_int(theta)
    index = 1
    prev = 1
    for k in range(1, len(a) + 1):
        dk = _minor_gcd(a, k)
        d = dk // prev if prev else 0
        index *= ell // gcd(d, ell)
        prev = dk
    root = isqrt(index)
    if root * root != index:
        raise ValueError(f"lattice index {index} is not a perfect square")
    return root


def intertwiner_error(X, L: int, gens1, gens2):
    """Why X fails to intertwine two generalized permutation-phase
    representations, or None.  X is a d x d matrix over Q(zeta_L) given as
    power-basis coefficient tuples; gens are (perm, phases) pairs.  Checked
    numerically: X U1 = U2 X for every generator and X invertible."""
    powers = np.exp(2j * np.pi * np.arange(len(X[0][0])) / L)
    x = np.array([[np.dot([float(c) for c in e], powers) for e in row] for row in X])

    def dense(perm, phases):
        m = np.zeros((len(perm), len(perm)), dtype=complex)
        m[list(perm), range(len(perm))] = np.exp(2j * np.pi * np.array(
            [float(p) for p in phases]))
        return m

    for (p1, ph1), (p2, ph2) in zip(gens1, gens2):
        if not np.allclose(x @ dense(p1, ph1), dense(p2, ph2) @ x, atol=1e-8):
            return "X does not intertwine the generators"
    if np.linalg.matrix_rank(x) != len(X):
        return "intertwiner is singular"
    return None
