import random
from fractions import Fraction
from itertools import product

import numpy as np
import oracles
import pytest

from flattori.cohomology import (
    REVERSED,
    STANDARD,
    AltFormModQ,
    AltFormZ,
    RootOfUnity,
    beta_reduce,
    fundamental_pairing,
    mu_q_image,
    pullback,
)
from flattori.exact_linalg import IntMatrix


def test_fundamental_pairing_anchor():
    # the repo-wide sign convention, asserted exactly once
    assert fundamental_pairing(AltFormZ([[0, 1], [-1, 0]]), STANDARD) == -1


def test_fundamental_pairing_examples():
    a = 5
    c = AltFormZ([[0, -a], [a, 0]])  # c(e1,e2) = -a
    assert fundamental_pairing(c, STANDARD) == a
    assert fundamental_pairing(AltFormZ([[0, 0], [0, 0]])) == 0
    assert fundamental_pairing(c, REVERSED) == -a


def test_fundamental_pairing_dimension_error():
    with pytest.raises(ValueError):
        fundamental_pairing(AltFormZ([[0] * 3] * 3))


def test_beta_reduce():
    c = AltFormZ([[0, -3], [3, 0]])
    assert beta_reduce(c, 3) == AltFormModQ([[0, 0], [0, 0]], 3)
    c1 = AltFormZ([[0, 1], [-1, 0]])
    assert beta_reduce(c1, 3).mat == IntMatrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        beta_reduce(c1, 0)


def test_beta_reduce_kills_q_multiples():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 4)
        q = rng.randint(1, 12)
        c = _random_form(rng, n)
        L = _random_form(rng, n)
        shifted = AltFormZ([[x + q * y for x, y in zip(r, s)]
                            for r, s in zip(c.mat.entries, L.mat.entries)])
        assert beta_reduce(shifted, q) == beta_reduce(c, q)


def _random_form(rng, n, bound=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            m[i][j] = v
            m[j][i] = -v
    return AltFormZ(m)


def test_pullback_examples():
    c = AltFormZ([[0, 3], [-3, 0]])  # 3 * e1^e2
    P = IntMatrix([[1, 0], [0, 2]])
    assert pullback(c, P) == AltFormZ([[0, 6], [-6, 0]])
    assert pullback(c, IntMatrix.identity(2)) == c
    # a class with pairing value odd is not a pullback through a 2-fold cover
    c1 = AltFormZ([[0, 1], [-1, 0]])
    assert pullback(c1, P).mat[0][1] % 2 == 0


def test_pullback_functorial():
    rng = random.Random(13)
    for _ in range(100):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        c = _random_form(rng, m)
        P = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        Q = IntMatrix([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)])
        assert pullback(pullback(c, P), Q) == pullback(c, P @ Q)


def test_beta_reduce_pullback_naturality():
    rng = random.Random(15)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        q = rng.randint(1, 12)
        c = _random_form(rng, m)
        P = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        assert oracles.pullback_modq(beta_reduce(c, q), P) == beta_reduce(pullback(c, P), q)


def test_root_of_unity_group_law():
    assert mu_q_image(0, 5) == RootOfUnity(0)
    assert mu_q_image(5, 5) == RootOfUnity(0)
    assert mu_q_image(-2, 7) == RootOfUnity(Fraction(5, 7))
    for k in range(-20, 20):
        for j in range(-10, 10):
            q = 12
            assert RootOfUnity(mu_q_image(k, q).phase + mu_q_image(j, q).phase) \
                == mu_q_image(k + j, q)
            assert mu_q_image(k, q) ** j == mu_q_image(k * j, q)
    # kernel is exactly qZ
    for k in range(-24, 25):
        assert (mu_q_image(k, 8) == RootOfUnity(0)) == (k % 8 == 0)


def test_root_of_unity_inverse_and_str():
    z = RootOfUnity(Fraction(2, 3))
    assert z ** -1 == RootOfUnity(Fraction(1, 3))
    assert str(z) == "2/3"
    assert str(RootOfUnity(0)) == "0/1"


def test_root_of_unity_takes_exact_phases_only():
    # used to store 0.1 as 3602879701896397/2**55 and to parse strings
    for phase in [0.1, 0.5, "1/3", None, 1j]:
        with pytest.raises(ValueError):
            RootOfUnity(phase)
    assert RootOfUnity(Fraction(4, 3)) == RootOfUnity(Fraction(1, 3))
    assert RootOfUnity(-2) == RootOfUnity(0)
    # so are exponents: a fractional power used to pick one of its values
    z = RootOfUnity(Fraction(1, 3))
    for k in [Fraction(1, 2), 0.5, 2.0, "2", None]:
        with pytest.raises(ValueError):
            z ** k
    assert z ** np.int64(2) == z ** 2 == RootOfUnity(Fraction(2, 3))
    assert z ** True == z


def test_mu_q_image_takes_exact_integers_only():
    # used to raise TypeError from Fraction on a float k or q
    for k, q in [(1.5, 3), (1, 3.0), (Fraction(1, 2), 3), ("1", 3)]:
        with pytest.raises(ValueError):
            mu_q_image(k, q)
    assert mu_q_image(True, 3) == mu_q_image(1, 3)


def test_altformmodq_validation():
    with pytest.raises(ValueError):
        AltFormModQ(IntMatrix([[0, 1], [1, 0]]), 3)
    # mod 2, symmetric == skew
    AltFormModQ(IntMatrix([[0, 1], [1, 0]]), 2)
    # but the diagonal is 0, also where 2 a_ii = 0 mod q
    for mat, q in (([[1, 1], [1, 0]], 2), ([[2, 1], [-1, 0]], 4)):
        with pytest.raises(ValueError, match="^matrix is not alternating mod q$"):
            AltFormModQ(mat, q)


def test_altformmodq_accepts_exactly_the_reductions_of_alternating_forms():
    for n, q_max in ((2, 8), (3, 3)):
        for q in range(1, q_max + 1):
            for entries in product(range(q), repeat=n * n):
                mat = [entries[i * n:(i + 1) * n] for i in range(n)]
                try:
                    accepted = AltFormModQ(mat, q).mat == IntMatrix(mat)
                except ValueError:
                    accepted = False
                assert accepted == oracles.has_alternating_lift(mat, q), (mat, q)


def test_fundamental_pairing_reads_mod_q_forms_by_their_entry():
    for q in range(1, 8):
        for a in range(-8, 9):
            c = AltFormZ([[0, -a], [a, 0]])
            beta = beta_reduce(c, q)
            for o in (STANDARD, REVERSED):
                assert fundamental_pairing(beta, o) % q == fundamental_pairing(c, o) % q
    with pytest.raises(ValueError, match="^fundamental pairing needs a form on Z\\^2$"):
        fundamental_pairing(AltFormModQ([[0] * 3] * 3, 5))
