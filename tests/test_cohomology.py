import random
from fractions import Fraction

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
    wedge,
)
from flattori.bundles import tw_to_omega
from flattori.exact_linalg import IntMatrix
from flattori.projrep import BilinearCocycle, QuadraticPhase


def test_wedge_elementary():
    e1, e2 = (1, 0), (0, 1)
    assert wedge(e1, e2) == AltFormZ([[0, 1], [-1, 0]])
    assert wedge(e1, e1).is_zero()
    assert wedge(e2, e1) == -wedge(e1, e2)


def test_wedge_shape_error():
    with pytest.raises(ValueError):
        wedge((1, 0), (1, 0, 0))


def test_wedge_rejects_non_integer_entries():
    # used to truncate: [1.7, 1] ^ [0, 1.2] came back as (1, 1) ^ (0, 1)
    for u, v in [([1.7, 1], [0, 1.2]), ([1, 0], [0, 1.0]), ([Fraction(1, 2), 0], [0, 1]),
                 (["1", 0], [0, 1]), ([None, 0], [0, 1])]:
        with pytest.raises(ValueError):
            wedge(u, v)
    assert wedge([2, 1], (0, True)) == AltFormZ([[0, 2], [-2, 0]])


def test_lattice_evaluators_take_exact_vectors_of_length_n():
    # AltFormZ.value returned 1.5 on (1.5, 0) and dropped a third coordinate;
    # the cocycle and phase evaluators truncated long vectors, raised
    # IndexError on short ones and TypeError on floats
    e1, e2 = (1, 0), (0, 1)
    form = AltFormZ([[0, 1], [-1, 0]])
    cocycle = BilinearCocycle([[0, Fraction(1, 3)], [0, 0]])
    phase = QuadraticPhase(IntMatrix([[1, 2], [0, 3]]), 5)
    for bad in [(1.5, 0), (1, 0.0), (Fraction(1, 2), 0), ("1", 0), (None, 0), (1, 0, 5), (1,),
                ()]:
        for evaluate in (form.value, cocycle.value, phase.coboundary):
            for u, v in ((bad, e2), (e1, bad)):
                with pytest.raises(ValueError):
                    evaluate(u, v)
        with pytest.raises(ValueError):
            phase.value(bad)
    assert form.value(e1, e2) == form.value((np.int64(1), False), (0, True)) == 1
    assert cocycle.value(e1, e2) == cocycle.value((True, 0), e2) == Fraction(1, 3)
    assert phase.value((1, 1)) == Fraction(6, 10)
    assert phase.coboundary(e1, e2) == Fraction(4, 5)


def test_wedge_bilinear_antisymmetric():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 5)
        u = [rng.randint(-9, 9) for _ in range(n)]
        v = [rng.randint(-9, 9) for _ in range(n)]
        w = [rng.randint(-9, 9) for _ in range(n)]
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        au_bv = [a * x + b * y for x, y in zip(u, v)]
        assert wedge(au_bv, w) == wedge(u, w).scale(a) + wedge(v, w).scale(b)
        assert wedge(w, au_bv) == wedge(w, u).scale(a) + wedge(w, v).scale(b)
        assert wedge(u, v) == -wedge(v, u)
        assert wedge(u, u).is_zero()


def test_fundamental_pairing_anchor():
    # the repo-wide sign convention, asserted exactly once
    assert fundamental_pairing(wedge((1, 0), (0, 1)), STANDARD) == -1


def test_fundamental_pairing_examples():
    a = 5
    c = AltFormZ([[0, -a], [a, 0]])  # c(e1,e2) = -a
    assert fundamental_pairing(c, STANDARD) == a
    assert fundamental_pairing(AltFormZ.zero(2)) == 0
    assert fundamental_pairing(c, REVERSED) == -a


def test_fundamental_pairing_dimension_error():
    with pytest.raises(ValueError):
        fundamental_pairing(AltFormZ.zero(3))


def test_beta_reduce():
    c = AltFormZ([[0, -3], [3, 0]])
    assert beta_reduce(c, 3).is_zero()
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
        assert beta_reduce(c + L.scale(q), q) == beta_reduce(c, q)


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
    c1 = wedge((1, 0), (0, 1))
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
    assert mu_q_image(0, 5) == RootOfUnity.one()
    assert mu_q_image(5, 5) == RootOfUnity.one()
    assert mu_q_image(-2, 7) == RootOfUnity(Fraction(5, 7))
    for k in range(-20, 20):
        for j in range(-10, 10):
            q = 12
            assert mu_q_image(k, q) * mu_q_image(j, q) == mu_q_image(k + j, q)
    # kernel is exactly qZ
    for k in range(-24, 25):
        assert (mu_q_image(k, 8) == RootOfUnity.one()) == (k % 8 == 0)


def test_root_of_unity_inverse_and_str():
    z = RootOfUnity(Fraction(2, 3))
    assert z * z.inverse() == RootOfUnity.one()
    assert str(z) == "2/3"
    assert str(RootOfUnity.one()) == "0/1"


def test_root_of_unity_takes_exact_phases_only():
    # used to store 0.1 as 3602879701896397/2**55 and to parse strings
    for phase in [0.1, 0.5, "1/3", None, 1j]:
        with pytest.raises(ValueError):
            RootOfUnity(phase)
    assert RootOfUnity(Fraction(4, 3)) == RootOfUnity(Fraction(1, 3))
    assert RootOfUnity(-2) == RootOfUnity.one()
    # so are exponents: a fractional power used to pick one of its values
    z = RootOfUnity(Fraction(1, 3))
    for k in [Fraction(1, 2), 0.5, 2.0, "2", None]:
        with pytest.raises(ValueError):
            z ** k
    assert z ** np.int64(2) == z ** True * z == RootOfUnity(Fraction(2, 3))
    assert z ** -1 == z.inverse()


def test_mu_q_image_takes_exact_integers_only():
    # used to raise TypeError from Fraction on a float k or q
    for k, q in [(1.5, 3), (1, 3.0), (Fraction(1, 2), 3), ("1", 3)]:
        with pytest.raises(ValueError):
            mu_q_image(k, q)
    with pytest.raises(ValueError):
        tw_to_omega(1.5, 3)
    assert mu_q_image(True, 3) == mu_q_image(1, 3)


def test_altformmodq_validation():
    with pytest.raises(ValueError):
        AltFormModQ(IntMatrix([[0, 1], [1, 0]]), 3)
    # mod 2, symmetric == skew
    AltFormModQ(IntMatrix([[0, 1], [1, 0]]), 2)
