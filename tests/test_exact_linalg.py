import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import numpy as np
import pytest

import oracles
from oracles import lattice_kernel_mod, unimodular_sample

from flattori.cohomology import AltFormZ
from flattori.exact_linalg import (
    IntMatrix,
    SkewRatForm,
    _lowest_terms,
    inverse_mod,
    lift_unimodular_mod,
    smith_normal_form,
    symplectic_normal_form,
)


def random_int_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def random_skew(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            m[i][j] = v
            m[j][i] = -v
    return IntMatrix(m)


def check_smith(M):
    """Verify the invariant factors of M: the reference Smith form
    U M V = D holds literally with |det U| = |det V| = 1, D is diagonal with
    d_i >= 0 and d_i | d_{i+1}, the library returns D's diagonal, and
    d_1 ... d_k is the gcd of the k x k minors of M for every k."""
    d = smith_normal_form(M)
    U, D, V = oracles.smith_with_transforms(M)
    assert U @ M @ V == D and abs(U.det()) == abs(V.det()) == 1
    diag = [D[i][i] for i in range(min(D.rows, D.cols))]
    assert d == tuple(diag)
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for k in range(1, len(diag) + 1):
        minors = (IntMatrix([[M[i][j] for j in cols] for i in rows]).det()
                  for rows in combinations(range(M.rows), k)
                  for cols in combinations(range(M.cols), k))
        assert gcd(*minors) == prod(diag[:k])
    return diag


def test_smith_already_diagonal():
    assert smith_normal_form(IntMatrix([[6]])) == (6,)


def test_smith_zero_1x1():
    assert smith_normal_form(IntMatrix([[0]])) == (0,)
    check_smith(IntMatrix([[0]]))


def test_smith_2x2_hand_oracle():
    # hand row-reduction: gcd of entries 2, |det| = 8 -> diag(2, 4)
    M = IntMatrix([[2, 4], [6, 8]])
    diag = check_smith(M)
    assert diag == [2, 4]


def test_smith_random_certificates():
    rng = random.Random(7)
    for _ in range(150):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        check_smith(random_int_matrix(rng, r, c))


def test_smith_rectangular_and_zero():
    check_smith(IntMatrix([[0] * 4] * 3))
    check_smith(IntMatrix([[0, 0, 5]]))
    check_smith(IntMatrix([[2], [4], [6]]))


def test_symplectic_2x2():
    nf = symplectic_normal_form(IntMatrix([[0, 6], [-6, 0]]))
    assert nf.divisors == (6,)
    assert nf.T == IntMatrix.identity(2)


def test_symplectic_zero():
    nf = symplectic_normal_form(IntMatrix([[0] * 3] * 3))
    assert nf.divisors == ()
    assert nf.normal_matrix(3) == IntMatrix([[0] * 3] * 3)


def test_symplectic_rejects_non_skew():
    with pytest.raises(ValueError):
        symplectic_normal_form(IntMatrix([[0, 1], [1, 0]]))


def test_symplectic_block_2_3_divisors():
    M = IntMatrix([
        [0, 2, 0, 0],
        [-2, 0, 0, 0],
        [0, 0, 0, 3],
        [0, 0, -3, 0],
    ])
    nf = symplectic_normal_form(M)
    # gcd-chain invariants: Smith diagonal of M must be (1, 1, 6, 6)
    assert nf.divisors == (1, 6)
    diag = check_smith(M)
    assert diag == [1, 1, 6, 6]


def test_symplectic_divisors_match_smith_pattern():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(1, 6)
        M = random_skew(rng, n)
        nf = symplectic_normal_form(M)
        diag = [d for d in check_smith(M) if d != 0]
        expect = []
        for e in nf.divisors:
            expect += [e, e]
        assert diag == expect


def test_symplectic_divisors_congruence_invariant():
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(2, 5)
        M = random_skew(rng, n, bound=6)
        T = unimodular_sample(n, seed=1000 + trial, word_length=12)
        M2 = T @ M @ T.transpose()
        assert symplectic_normal_form(M2).divisors == symplectic_normal_form(M).divisors


def brute_force_kernel_count(M, ell):
    n = M.rows
    count = 0
    for h in product(range(ell), repeat=n):
        if all(sum(M[i][j] * h[j] for j in range(n)) % ell == 0 for i in range(n)):
            count += 1
    return count


def test_lattice_kernel_examples():
    M = IntMatrix([[0, 1], [-1, 0]])
    basis, index = lattice_kernel_mod(M, 2)
    assert index == 4
    # H = 2Z^2: every basis vector even, and e.g. (2,0) in the span
    for b in basis:
        assert all(b[i][0] % 2 == 0 for i in range(2))

    _, index = lattice_kernel_mod(IntMatrix([[0] * 3] * 3), 5)
    assert index == 1

    _, index = lattice_kernel_mod(M, 1)
    assert index == 1


def test_lattice_kernel_errors():
    with pytest.raises(ValueError):
        lattice_kernel_mod(IntMatrix.identity(2), 0)


def test_lattice_kernel_vs_brute_force():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 3)
        ell = rng.randint(1, 6)
        M = random_int_matrix(rng, n, n, bound=6)
        basis, index = lattice_kernel_mod(M, ell)
        count = brute_force_kernel_count(M, ell)
        assert index == ell ** n // count
        # basis vectors really lie in the kernel
        for b in basis:
            col = M @ b
            assert all(col[i][0] % ell == 0 for i in range(n))
        # and they span a sublattice of exactly that index
        B = IntMatrix([[basis[j][i][0] for j in range(n)] for i in range(n)])
        assert abs(B.det()) == index


def test_unimodular_sample():
    assert unimodular_sample(2, seed=99, word_length=0) == IntMatrix.identity(2)
    m = unimodular_sample(2, seed=1, word_length=1)
    assert abs(m.det()) == 1
    for seed in range(100):
        n = 1 + seed % 4
        m = unimodular_sample(n, seed=seed, word_length=10)
        assert abs(m.det()) == 1
    # deterministic per seed
    assert unimodular_sample(3, 42, 8) == unimodular_sample(3, 42, 8)


def test_rat_matrix_canonical():
    # a rational matrix is integer numerators over the least common
    # denominator, in lowest terms, however it is written
    N, ell = _lowest_terms([[Fraction(2, 4), Fraction(-3, -9)], [0, 1]])
    assert (N, ell) == (IntMatrix([[3, 2], [0, 6]]), 6)
    assert all(type(x) is int for row in N for x in row)
    assert _lowest_terms([[Fraction(5, 7), 3], [Fraction(10, 14), Fraction(3)]]) == \
        (IntMatrix([[5, 21], [5, 21]]), 7)
    assert _lowest_terms(IntMatrix([[4, -6], [2, 0]]), 8) == (IntMatrix([[2, -3], [1, 0]]), 4)
    assert _lowest_terms([[Fraction(1, 3), True]], 2) == (IntMatrix([[1, 3]]), 6)
    assert _lowest_terms([[0, 0]], 5) == (IntMatrix([[0, 0]]), 1)
    for bad_den in (0, -3, 0.5, 2.0, Fraction(1, 2), "2"):
        with pytest.raises(ValueError):
            _lowest_terms([[1]], bad_den)


def test_rat_inverse():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        T = unimodular_sample(n, seed=rng.randint(0, 10 ** 6), word_length=10)
        inv = T.inverse_unimodular()
        assert T @ inv == IntMatrix.identity(n)


def test_skew_rat_form():
    theta = SkewRatForm([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
    assert theta.ell == 3
    assert theta.scaled_int(3) == IntMatrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        SkewRatForm([[0, 1], [1, 0]])
    # frac representative stays skew with above-diagonal entries in [0,1)
    t2 = SkewRatForm([[0, Fraction(7, 3)], [Fraction(-7, 3), 0]]).frac()
    assert oracles.fraction_matrix(t2) == [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]]


def test_skew_form_agrees_with_fraction_reference():
    rng = random.Random(29)
    for trial in range(400):
        n = 1 + trial % 8
        max_den = 1 + (trial // 8) % 12
        m = [[Fraction(0)] * n for _ in range(n)]
        z = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.randint(-30, 30), rng.randint(1, max_den))
                m[j][i] = -m[i][j]
                z[i][j] = rng.randint(-4, 4)
                z[j][i] = -z[i][j]
        ref = oracles.RatMatrix(m)
        theta = SkewRatForm(m)
        ell = lcm(*(x.denominator for row in ref.entries for x in row))
        assert oracles.fraction_matrix(theta) == ref and theta.ell == ell and theta.n == n
        assert oracles.fraction_matrix(theta.frac()) == oracles.fraction_frac(ref)
        T = unimodular_sample(n, seed=9000 + trial, word_length=rng.randint(0, 10))
        moved = theta.congruence(T)
        assert oracles.fraction_matrix(moved) == oracles.fraction_congruence(T, ref)
        assert moved.ell == ell
        shifted = SkewRatForm(ref + IntMatrix(z))
        assert shifted.ell == ell and shifted.frac() == theta.frac()
        assert hash(shifted.frac()) == hash(theta.frac())
        k = ell * rng.randint(-3, 5)
        assert theta.scaled_int(k) == oracles.fraction_scaled_int(ref, k)
        if ell > 1:
            for bad in (k + 1, ell + ell // 2 + 1, 1):
                if bad % ell:
                    with pytest.raises(ValueError):
                        oracles.fraction_scaled_int(ref, bad)
                    with pytest.raises(ValueError):
                        theta.scaled_int(bad)
        # unreduced inputs: numerators and denominator sharing a factor c,
        # given as an integer matrix or as Fractions over c
        c = rng.randint(2, 6)
        for other in (SkewRatForm(theta.S.scale(c), ell * c),
                      SkewRatForm(ref.scale(Fraction(c)), c),
                      SkewRatForm([[x * c for x in row] for row in theta.S], ell * c)):
            assert oracles.fraction_matrix(other) == ref
            assert other == theta and hash(other) == hash(theta)
            assert (other.ell, other.S) == (theta.ell, theta.S)
    half = SkewRatForm([[0, Fraction(2, 4)], [Fraction(-1, 2), 0]])
    assert half == SkewRatForm(IntMatrix([[0, 2], [-2, 0]]), 4) == SkewRatForm([[0, 3], [-3, 0]], 6)
    assert hash(half) == hash(SkewRatForm(IntMatrix([[0, 2], [-2, 0]]), 4))
    assert (half.ell, half.S) == (2, IntMatrix([[0, 1], [-1, 0]]))


def test_rat_matrix_and_skew_form_take_exact_entries_only():
    for bad in (0.1, 0.5, 2.0, "1/2", "3", None, 1j):
        with pytest.raises(ValueError):
            _lowest_terms([[bad]])
        with pytest.raises(ValueError):
            SkewRatForm([[0, bad], [bad, 0]])
    with pytest.raises(ValueError):
        SkewRatForm([[0, 0.1], [-0.1, 0]])
    # a flat list is not a list of rows
    for build in (IntMatrix, SkewRatForm):
        with pytest.raises(ValueError, match="list of rows"):
            build([1, 2])
    for bad_den in (0, -3, 0.5, 2.0, Fraction(1, 2)):
        with pytest.raises(ValueError):
            SkewRatForm(IntMatrix([[0, 1], [-1, 0]]), bad_den)
    # ints (bools among them) and Fractions are the exact entries
    assert _lowest_terms([[True, 2, Fraction(1, 3)]]) == (IntMatrix([[3, 6, 1]]), 3)


def test_lift_unimodular_mod():
    rng = random.Random(17)
    cases = []
    for trial in range(200):
        n = rng.randint(1, 6)
        ell = rng.choice((rng.randint(1, 12), rng.randint(13, 2 ** 31 - 1)))
        g = unimodular_sample(n, seed=5000 + trial, word_length=14).mod(ell)
        cases.append((g, ell))
    cases += [
        # no entry of the first column is a unit mod 6 (det 1, then det -1)
        (IntMatrix([[2, 1], [3, 2]]), 6), (IntMatrix([[4, 1, 0], [3, 1, 0], [0, 0, 5]]), 6),
        # det = -1 mod ell, n = 1 among them
        (IntMatrix([[0, 1], [1, 0]]), 5), (IntMatrix([[4]]), 5), (IntMatrix([[8]]), 7),
        (IntMatrix([[3, 5, 1], [1, 2, 0], [0, 4, 4]]), 9),
        # ell = 1 takes any matrix, ell = 2 any odd determinant
        (IntMatrix([[3, 5], [7, 9]]), 1), (IntMatrix([[0]]), 1), (IntMatrix([[1, 1], [1, 0]]), 2),
        (IntMatrix([[1]]), 2), (IntMatrix([[3, 2, 2], [2, 1, 2], [2, 2, 1]]), 2),
    ]
    for g, ell in cases:
        T = lift_unimodular_mod(g, ell)
        assert (T - g).mod(ell) == IntMatrix([[0] * g.rows] * g.rows), (g, ell)
        det = oracles.leibniz_det(T)
        assert abs(det) == 1, (g, ell)
        if ell > 2:
            assert det % ell == oracles.leibniz_det(g) % ell, (g, ell)
    assert sum(g.rows == 6 for g, _ in cases) > 10
    assert sum(oracles.leibniz_det(g) % ell == ell - 1 for g, ell in cases if ell > 2) > 30


def test_lift_rejects_non_unit_det():
    with pytest.raises(ValueError):
        lift_unimodular_mod(IntMatrix([[2, 0], [0, 1]]), 4)
    with pytest.raises(ValueError):
        lift_unimodular_mod(IntMatrix([[2, 1], [4, 5]]), 6)
    # the lift reads det g mod ell off its pivots: a zero column, a pivot
    # that is no unit and units whose product is not +-1 are each refused
    rng = random.Random(19)
    cases = [(IntMatrix([[0, 1], [0, 2]]), 5), (IntMatrix([[2, 0], [0, 1]]), 5),
             (IntMatrix([[3]]), 8)]
    cases += [(IntMatrix([[rng.randrange(ell) for _ in range(n)] for _ in range(n)]), ell)
              for n, ell in ((rng.randint(1, 4), rng.randint(2, 12)) for _ in range(400))]
    for g, ell in cases:
        if oracles.leibniz_det(g) % ell in (1, ell - 1):
            assert (lift_unimodular_mod(g, ell) - g).mod(ell) == IntMatrix([[0] * g.rows] * g.rows)
        else:
            with pytest.raises(ValueError, match=r"^determinant is not \+-1 mod ell$"):
                lift_unimodular_mod(g, ell)
    with pytest.raises(ValueError, match="square"):
        lift_unimodular_mod(IntMatrix([[1, 0]]), 3)
    # the modulus is an exact integer >= 1
    for bad in (-3, 0, 2.0, "3", None):
        with pytest.raises(ValueError, match="modulus must be an integer >= 1|not an integer"):
            lift_unimodular_mod(IntMatrix([[2, 1], [1, 1]]), bad)
    g = IntMatrix([[2, 1], [1, 1]])
    assert lift_unimodular_mod(g, Fraction(3, 1)) == lift_unimodular_mod(g, 3)


def test_inverse_mod():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(1, 4)
        ell = rng.randint(2, 12)
        T = unimodular_sample(n, seed=7000 + trial, word_length=10)
        g = T.mod(ell)
        ginv = inverse_mod(g, ell)
        assert (g @ ginv).mod(ell) == IntMatrix.identity(n).mod(ell)


def test_inverse_mod_names_a_determinant_that_is_not_a_unit():
    for rows, ell, message in (([[2, 0], [0, 1]], 4, "determinant 2 is not a unit mod 4"),
                               ([[1, 2], [2, 4]], 5, "determinant 0 is not a unit mod 5"),
                               ([[3, 1], [1, 5]], 7, "determinant 0 is not a unit mod 7"),
                               ([[9]], 6, "determinant 3 is not a unit mod 6")):
        with pytest.raises(ValueError) as exc:
            inverse_mod(IntMatrix(rows), ell)
        assert str(exc.value) == message
    # modulo 1 every determinant is a unit
    assert inverse_mod(IntMatrix([[2, 0], [0, 2]]), 1) == IntMatrix([[0, 0], [0, 0]])


def test_adjugate_matches_cofactor_reference():
    rng = random.Random(47)
    checked = singular = 0
    while checked < 2100:
        n = 1 + checked % 7
        M = random_int_matrix(rng, n, n, bound=rng.choice((1, 3, 9, 40)))
        d, adj = M._adjugate()
        assert d == M.det()
        if d == 0:
            assert adj == [[0] * n for _ in range(n)]
            singular += 1
            continue
        ref = oracles.cofactor_adjugate(M)
        assert IntMatrix(adj) == ref
        assert ref @ M == IntMatrix.identity(n).scale(d)
        checked += 1
    assert singular > 50  # zero pivots and singular inputs were drawn too


def test_inverses_edge_cases():
    rng = random.Random(53)
    squares = [IntMatrix([[0] * n] * n) for n in range(1, 5)] + [IntMatrix([[2, 4], [1, 2]])]
    squares += [random_int_matrix(rng, n, n, bound=3) for n in range(1, 6) for _ in range(8)]
    for M in squares:
        assert inverse_mod(M, 1) == IntMatrix([[0] * M.rows] * M.rows)
    for M, ell in ((IntMatrix([[2, 0], [0, 1]]), 4), (IntMatrix([[3]]), 6),
                   (IntMatrix([[2, 4], [1, 2]]), 5), (IntMatrix([[0] * 3] * 3), 7)):
        with pytest.raises(ValueError):
            inverse_mod(M, ell)
    for M in (IntMatrix([[2, 0], [0, 1]]), IntMatrix([[3]]), IntMatrix([[2, 4], [1, 2]]),
              IntMatrix([[0] * 2] * 2), IntMatrix([[1, 2, 3]])):
        with pytest.raises(ValueError):
            M.inverse_unimodular()
    # the modulus is an exact integer >= 1; IntMatrix.mod(-3) used to return
    # negative entries, .mod(0) raised ZeroDivisionError and .mod(2.0) blamed
    # "matrix entry 0.0"
    M = IntMatrix([[2, 1], [1, 1]])
    for bad in (-3, 0, 2.0, "3", None):
        for reduce in (inverse_mod, IntMatrix.mod):
            with pytest.raises(ValueError, match="modulus must be an integer >= 1|not an integer index"):
                reduce(M, bad)
    for reduce in (inverse_mod, IntMatrix.mod):
        assert reduce(M, Fraction(3, 1)) == reduce(M, 3)
    assert M.mod(np.int64(2)) == M.mod(2) == IntMatrix([[0, 1], [1, 1]])


def test_constructor_stores_exact_entries():
    m = IntMatrix([[True, np.int64(-5), Fraction(6, 3)], [False, 7, np.int64(2) ** 40]])
    assert m.entries == ((1, -5, 2), (0, 7, 2 ** 40))
    assert all(type(x) is int for row in m for x in row)
    for bad in (0.5, 2.0, "3", None):
        for build, good in ((IntMatrix, [1, 2, 3, 4, 5, 6]),
                            (_lowest_terms, [Fraction(1, 2), 1, 2, 3, 4, Fraction(5, 3)]),
                            (_lowest_terms, [Fraction(k, 7) for k in range(6)])):
            for pos in (0, 3, 5):
                flat = list(good)
                flat[pos] = bad
                with pytest.raises(ValueError):
                    build([flat[:3], flat[3:]])


def test_int_matrix_never_truncates():
    for bad in (Fraction(1, 2), 0.5, 2.0, "3"):
        with pytest.raises(ValueError):
            IntMatrix([[bad]])
    with pytest.raises(ValueError):
        AltFormZ([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    with pytest.raises(ValueError):
        SkewRatForm([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]]).scaled_int(2)
    # exact integers of other types are accepted as plain ints
    m = IntMatrix([[Fraction(4, 2), True, -7]])
    assert m.entries == ((2, 1, -7),)
    assert all(type(x) is int for x in m[0])
    # a scale factor must be an exact integer too: the product stays integral
    for bad in (Fraction(1, 2), Fraction(-7, 3), 0.5, 2.0, "3"):
        with pytest.raises(ValueError):
            m.scale(bad)
    assert m.scale(Fraction(6, 3)).entries == ((4, 2, -14),)
    rng = random.Random(41)
    for _ in range(20):
        a = random_int_matrix(rng, 3, 3)
        for got in (a @ a, a - a, a.scale(3), a.scale(Fraction(-4, 2)), a.transpose()):
            assert type(got) is IntMatrix
            assert all(type(x) is int for row in got for x in row)
