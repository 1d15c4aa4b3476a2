"""Exact integer matrix kernels.

Arbitrary precision throughout: Python ints and fractions.Fraction.  Values
are immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.  No floating point.

One rule decides every exact number the library reads, here and nowhere
else.  An exact integer is an int, an integral Fraction or anything with
__index__ (so bools and NumPy integers count, as Python counts them) and is
stored as an int; anything else raises ValueError, none is truncated.
`_int` reads one, `_ints` a tuple of them, `_positive` a
parameter that must be at least 1 (a rank, an order, a modulus), and
`_rational` an exact rational: a Fraction or an exact integer.

IntMatrix is the only matrix class: its entries and a scale factor are
exact integers, a matrix of all ints skips the conversion, and one built by
the library's own arithmetic skips every check (`_int_matrix`).  A rational
matrix is stored as integer numerators over its least common denominator,
in lowest terms; `_lowest_terms` is the one place that builds this format,
from ints and Fractions or from integer numerators over a common
denominator (as `textio` reads a matrix).  A skew form is S / ell that
way, so its congruences and reductions are integer operations.  The Smith
form returns its invariant factors and tracks no transform, and both
inverses use one fraction-free Gauss-Jordan pass for the determinant and
the adjugate.  The lift mod ell to GL(n, Z) is one elimination pass to a
diagonal of units mod ell, then closed-form det-1 blocks that push the
units down the diagonal.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

_INT, _EXACT = frozenset({int}), frozenset({int, Fraction})


def _int(x) -> int:
    """x as an exact integer (the rule above); raises, never truncates."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
    else:
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"not an integer index: {x!r}")


def _tuple(xs) -> tuple:
    """xs as a tuple; a value that is not a sequence raises."""
    try:
        return tuple(xs)
    except TypeError:
        raise ValueError(f"not a sequence: {xs!r}") from None


def _ints(xs) -> tuple:
    """xs as a tuple of exact integers; anything else raises."""
    xs = _tuple(xs)
    try:
        return tuple(map(operator.index, xs))
    except TypeError:
        return tuple(map(_int, xs))


def _positive(x, name: str) -> int:
    """x as an exact integer >= 1; anything else raises, naming the parameter."""
    x = _int(x)
    if x < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {x}")
    return x


def _rational(x) -> Fraction:
    """x as an exact rational: a Fraction, or an exact integer as one."""
    return x if isinstance(x, Fraction) else Fraction(_int(x))


def _instance(x, *classes):
    """x when it is one of the library types a parameter takes; anything
    else raises, naming them."""
    if not isinstance(x, classes):
        raise ValueError(f"not a {' or '.join(c.__name__ for c in classes)}: {x!r}")
    return x


def _row_tuples(mat) -> tuple:
    """The rows of a nested matrix input as tuples; a flat list raises."""
    try:
        return tuple(map(tuple, mat))
    except TypeError as exc:
        raise ValueError(f"a matrix is a list of rows: {exc}") from None


class IntMatrix:
    """Immutable arbitrary-precision integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        ents = _row_tuples(entries)
        if not _INT.issuperset(map(type, chain.from_iterable(ents))):
            ents = tuple(tuple(map(_int, row)) for row in ents)
        if not ents or not ents[0]:
            raise ValueError("matrix dimensions must be positive")
        if len(set(map(len, ents))) != 1:
            raise ValueError("ragged rows")
        _int_matrix(ents, self)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int):
        n = _positive(n, "n")
        return _int_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _int_matrix(map(operator.sub, ra, rb)
                           for ra, rb in zip(self.entries, other.entries))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        bt = list(zip(*other.entries))
        return _int_matrix([[sum(map(operator.mul, row, col)) for col in bt]
                            for row in self.entries])

    def scale(self, k):
        """k * self for an exact integer k; anything else raises."""
        k = _int(k)
        return _int_matrix([[a * k for a in row] for row in self.entries])

    def transpose(self):
        return _int_matrix(zip(*self.entries))

    def is_skew(self) -> bool:
        return self.entries == tuple(zip(*[[-a for a in row] for row in self.entries]))

    def mod(self, ell: int) -> "IntMatrix":
        """Entries reduced into [0, ell), for a modulus ell >= 1."""
        ell = _positive(ell, "modulus")
        return _int_matrix([[a % ell for a in row] for row in self.entries])

    def det(self) -> int:
        """Exact determinant, Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        a = [list(r) for r in self.entries]
        sign = prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                i = next((i for i in range(k + 1, n) if a[i][k]), None)
                if i is None:
                    return 0
                a[k], a[i] = a[i], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def _adjugate(self):
        """(det M, rows of adj M) by one fraction-free Gauss-Jordan pass over
        [M | I]: its row operations L give L M = s det M * I and adj M = s L,
        s the sign of the row swaps.  The rows are zero when M is singular."""
        n = self.rows
        if n != self.cols:
            raise ValueError("adjugate of non-square matrix")
        a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.entries)]
        sign = prev = 1
        for k in range(n):
            if a[k][k] == 0:
                i = next((i for i in range(k + 1, n) if a[i][k]), None)
                if i is None:
                    return 0, [[0] * n for _ in range(n)]
                a[k], a[i] = a[i], a[k]
                sign = -sign
            pivot, p = a[k], a[k][k]
            for i in range(n):
                if i != k:
                    c = a[i][k]
                    a[i] = [(p * x - c * y) // prev for x, y in zip(a[i], pivot)]
            prev = p
        return sign * prev, [[sign * x for x in row[n:]] for row in a]

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a matrix with det = +-1 (stays integral): det * adj."""
        d, adj = self._adjugate()
        if d not in (1, -1):
            raise ValueError("matrix is not unimodular")
        return _int_matrix([[d * a for a in row] for row in adj])


def _int_matrix(rows, m: IntMatrix | None = None) -> IntMatrix:
    """Rows of ints, non-empty and rectangular as the library's own arithmetic
    builds them, stored unchecked; into m when given (by __init__)."""
    ents = tuple(map(tuple, rows))
    m = object.__new__(IntMatrix) if m is None else m
    object.__setattr__(m, "rows", len(ents))
    object.__setattr__(m, "cols", len(ents[0]))
    object.__setattr__(m, "entries", ents)
    return m


def _skew_congruence(T: IntMatrix, S: IntMatrix) -> IntMatrix:
    """T S T^t for a skew S (column j is minus row j): skew too, so only the
    entries above the diagonal are computed."""
    if T.cols != S.rows:
        raise ValueError("shape mismatch in product")
    n, rows = T.rows, T.entries
    TS = [[-sum(map(operator.mul, r, s)) for s in S.entries] for r in rows]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = sum(map(operator.mul, TS[i], rows[j]))
            out[i][j], out[j][i] = x, -x
    return _int_matrix(out)


def _lowest_terms(mat, ell=1):
    """(N, d) with mat / ell = N / d in lowest terms: d the least common
    denominator, gcd(d, entries of N) = 1, so equal rational matrices give
    equal pairs.  mat is an IntMatrix of numerators or nested ints and
    Fractions; ell must be an exact integer >= 1."""
    ell = _positive(ell, "denominator")
    if not isinstance(mat, IntMatrix):
        rows = _row_tuples(mat)
        if not _EXACT.issuperset(map(type, chain.from_iterable(rows))):
            rows = [[_rational(x) for x in row] for row in rows]
        d = lcm(*(x.denominator for row in rows for x in row))
        mat = IntMatrix([[x.numerator * (d // x.denominator) for x in row] for row in rows])
        ell *= d
    g = gcd(ell, *chain.from_iterable(mat.entries))
    if g != 1:
        ell //= g
        mat = _int_matrix([[x // g for x in row] for row in mat.entries])
    return mat, ell


@dataclass(frozen=True, slots=True)
class SkewRatForm:
    """Skew-symmetric rational n x n matrix theta = mat / ell (mat an
    IntMatrix or a nested list of ints and Fractions), stored as S / ell in
    lowest terms (`_lowest_terms`), so equal forms have equal fields."""

    n: int
    ell: int
    S: IntMatrix

    def __init__(self, mat, ell: int = 1):
        S, ell = _lowest_terms(mat, ell)
        if not S.is_skew():
            raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "n", S.rows)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "S", S)

    def scaled_int(self, m: int) -> IntMatrix:
        """m * theta as an integer matrix; raises ValueError unless ell | m."""
        m = _int(m)
        if m % self.ell:
            raise ValueError(f"{m} does not clear the denominator {self.ell}")
        return self.S if m == self.ell else self.S.scale(m // self.ell)

    def congruence(self, T: IntMatrix) -> "SkewRatForm":
        """T * theta * T^t."""
        return SkewRatForm(_skew_congruence(_instance(T, IntMatrix), self.S), self.ell)

    def frac(self) -> "SkewRatForm":
        """Skew representative mod M_n(Z): above-diagonal entries in [0,1)."""
        n, ell, S = self.n, self.ell, self.S
        return SkewRatForm(_int_matrix([[S[i][j] % ell if j > i else -(S[j][i] % ell)
                                         for j in range(n)] for i in range(n)]), ell)


@dataclass(frozen=True)
class SymplecticNF:
    """Certificate T (|det|=1) with T*M*T^t = sum of (0 e_i; -e_i 0) blocks
    then zeros; e_1 | e_2 | ... positive."""

    T: IntMatrix
    divisors: tuple

    def normal_matrix(self, n: int) -> IntMatrix:
        m = [[0] * n for _ in range(n)]
        for i, e in enumerate(self.divisors):
            m[2 * i][2 * i + 1] = e
            m[2 * i + 1][2 * i] = -e
        return _int_matrix(m)


def smith_normal_form(M: IntMatrix) -> tuple:
    """The invariant factors d_1 | d_2 | ... of M, min(rows, cols) of them,
    d_i >= 0 with the zeros last: U M V = diag(d) for unimodular U and V,
    which are not tracked."""
    nr, nc = _instance(M, IntMatrix).rows, M.cols
    a = [list(r) for r in M.entries]
    t = 0
    while t < min(nr, nc):
        # minimal |entry| pivot in the active submatrix, ties lexicographic
        best = bi = bj = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (x < best or not best):
                    best, bi, bj = x, i, j
        if not best:
            break
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        pivot, p = a[t], a[t][t]
        clean = True
        for i in range(t + 1, nr):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], pivot)]
            if a[i][t]:
                clean = False
        # col_j -= q_j col_t for every j > t at once: col_t does not change
        qs = [(j, pivot[j] // p) for j in range(t + 1, nc) if pivot[j] // p]
        if qs:
            for row in a:
                y = row[t]
                if y:
                    for j, q in qs:
                        row[j] -= q * y
        if not clean or any(pivot[t + 1:]):
            continue
        # enforce divisibility into the remaining block
        viol = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
        if viol is not None:
            a[t] = [x + y for x, y in zip(pivot, a[viol])]
            continue
        pivot[t] = abs(p)  # the rest of row t is zero
        t += 1

    return tuple(a[i][i] for i in range(min(nr, nc)))


def symplectic_normal_form(M: IntMatrix) -> SymplecticNF:
    """Alternating normal form over Z of a skew-symmetric integer matrix.

    Pivot choice: entry of minimal absolute value, ties broken by lowest
    (row, col) lexicographic order.  The divisibility pass inside the loop
    makes the e_1 | e_2 | ... chain hold by construction, so the divisor
    list is canonical.
    """
    if not _instance(M, IntMatrix).is_skew():
        raise ValueError("matrix is not skew-symmetric")
    n = M.rows
    a = [list(r) for r in M.entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, k):  # basis op b_i += k*b_j: congruence row+col update
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] += k * row[j]
        t[i] = [x + k * y for x, y in zip(t[i], t[j])]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        t[i], t[j] = t[j], t[i]

    r = 0
    while 2 * r + 1 < n:
        best = None
        for i in range(2 * r, n):
            for j in range(i + 1, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best  # bi < bj, both >= 2r, so bj >= 2r+1 always
        if bi != 2 * r:
            swap(2 * r, bi)
        if bj != 2 * r + 1:
            swap(2 * r + 1, bj)
        if a[2 * r][2 * r + 1] < 0:
            swap(2 * r, 2 * r + 1)
        e = a[2 * r][2 * r + 1]
        clean = True
        for k in range(2 * r + 2, n):
            q = a[2 * r][k] // e
            if q:
                add(k, 2 * r + 1, -q)
            if a[2 * r][k]:
                clean = False
            q = a[2 * r + 1][k] // e
            if q:
                add(k, 2 * r, q)
            if a[2 * r + 1][k]:
                clean = False
        if not clean:
            continue
        viol = next(((i, j) for i in range(2 * r + 2, n) for j in range(i + 1, n)
                     if a[i][j] % e != 0), None)
        if viol is not None:
            # couple a non-divisible entry into the pivot row; the next
            # pass runs gcd steps against it
            add(2 * r, viol[0], 1)
            continue
        r += 1

    divisors = tuple(a[2 * i][2 * i + 1] for i in range(r))
    nf = SymplecticNF(T=_int_matrix(t), divisors=divisors)
    # certificate sanity: these are the type invariants
    if (abs(nf.T.det()) != 1 or _skew_congruence(nf.T, M) != nf.normal_matrix(n)
            or any(divisors[i + 1] % divisors[i] for i in range(len(divisors) - 1))):
        raise AssertionError("symplectic normal form failed its certificate check")
    return nf


def inverse_mod(M: IntMatrix, ell: int) -> IntMatrix:
    """Inverse mod ell of a matrix whose determinant is a unit mod ell:
    det^-1 * adj mod ell, on the residues of M so entries stay below ell.
    Any other determinant raises, naming it mod ell."""
    ell = _positive(ell, "modulus")
    d, adj = _instance(M, IntMatrix).mod(ell)._adjugate()
    if gcd(d, ell) != 1:
        raise ValueError(f"determinant {d % ell} is not a unit mod {ell}")
    dinv = pow(d % ell, -1, ell)
    return _int_matrix([[dinv * a % ell for a in row] for row in adj])


def lift_unimodular_mod(g: IntMatrix, ell: int) -> IntMatrix:
    """Integral T = g (mod ell) with det T = +1 or -1 matching det(g) mod ell.

    This is the surjectivity of SL(n,Z) -> SL(n,Z/ell) made effective by one
    elimination pass.  Integer row additions E bring g mod ell to a diagonal
    of units u_k: Euclid from the pivot down, then multipliers -a u_k^-1; as
    det E = 1, det g = +-1 mod ell exactly when the pivots are units whose
    product is +-1, which is checked instead of a determinant.
    S_k = [[w (1 - m ell), m ell], [-m ell, v]] has det 1 and is diag(w, v)
    mod ell, for w = u_0 ... u_k, v = w^-1 mod ell and wv = 1 + m ell, so
    T = E^-1 S_0 ... S_(n-2) diag(1, ..., 1, +-1), the sign the product of
    all units.  Residues and multipliers are balanced, which keeps T small.
    """
    ell = _positive(ell, "modulus")
    if _instance(g, IntMatrix).rows != g.cols:
        raise ValueError("square matrix expected")
    n = g.rows
    if ell == 1:
        return IntMatrix.identity(n)
    h = (ell - 1) // 2  # (x + h) % ell - h balances x into (-ell/2, ell/2]
    a = [[(x + h) % ell - h for x in row] for row in g.entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]  # E^-1

    def add(i, j, c):  # row_i += c row_j of a = E g: col_j -= c col_i of E^-1
        a[i] = [(x + c * y + h) % ell - h for x, y in zip(a[i], a[j])]
        for row in t:
            row[j] -= c * row[i]

    for k in range(n):
        while len(rows := [i for i in range(k, n) if a[i][k]]) > 1:
            p = min(rows, key=lambda i: abs(a[i][k]))
            for i in rows:
                if i != p:
                    add(i, p, -(a[i][k] // a[p][k]))
        if not rows or gcd(a[rows[0]][k], ell) != 1:
            raise ValueError("determinant is not +-1 mod ell")
        if rows[0] != k:
            add(k, rows[0], 1)
        uinv = pow(a[k][k], -1, ell)
        for i in range(n):
            if i != k and a[i][k]:
                add(i, k, (h - a[i][k] * uinv) % ell - h)
    w = 1
    for k in range(n - 1):
        w = (w * a[k][k] + h) % ell - h
        v = (pow(w, -1, ell) + h) % ell - h
        s = w * v - 1  # m ell
        for row in t:
            x, y = row[k], row[k + 1]
            row[k], row[k + 1] = w * (1 - s) * x - s * y, s * x + v * y
    w = (w * a[n - 1][n - 1] + h) % ell - h  # det g mod ell, and det T
    if w not in (1, -1):
        raise ValueError("determinant is not +-1 mod ell")
    for row in t:
        row[n - 1] *= w
    T = _int_matrix(t)
    if (any((x - y) % ell for rt, rg in zip(T.entries, g.entries) for x, y in zip(rt, rg))
            or abs(T.det()) != 1):
        raise AssertionError("unimodular lift failed verification")
    return T
