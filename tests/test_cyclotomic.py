import random
from fractions import Fraction

from flattori.cyclotomic import CycElt, cyclotomic_polynomial
from oracles import nullspace, sparse_rref


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_multiply():
    for L in (1, 2, 3, 4, 5, 6, 8, 12):
        for a in range(L):
            for b in range(L):
                za = CycElt.from_phase(Fraction(a, L), L)
                zb = CycElt.from_phase(Fraction(b, L), L)
                assert za * zb == CycElt.from_phase(Fraction(a + b, L), L)


def test_root_of_unity_order():
    z = CycElt.from_phase(Fraction(1, 5), 5)
    p = CycElt.one(5)
    for _ in range(5):
        p = p * z
    assert p == CycElt.one(5)


def test_inverse():
    rng = random.Random(3)
    for L in (1, 2, 3, 4, 6, 8, 12):
        deg = len(cyclotomic_polynomial(L)) - 1
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)]
            x = CycElt(L, coeffs)
            if x.is_zero():
                continue
            assert x * x.inverse() == CycElt.one(L)


def test_nullspace_simple():
    L = 4
    one = CycElt.one(L)
    i = CycElt.from_phase(Fraction(1, 4), L)
    # x0 + i*x1 = 0, over 3 variables -> 2-dim solution space
    rows = [{0: one, 1: i}]
    basis = nullspace(rows, 3, L)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] == CycElt.zero(L) - i * vec[1]


def test_rref_rank():
    L = 1
    one = CycElt.one(L)
    rows = [{0: one, 1: one}, {1: one, 2: one}, {0: one, 2: one}]
    pivots, free = sparse_rref(rows, 3, L)
    assert len(pivots) == 3  # over Q these three are independent
    rows = [{0: one, 1: one}, {1: one, 2: one},
            {0: one, 1: CycElt(L, [2]), 2: one}]  # dependent third
    pivots, free = sparse_rref(rows, 3, L)
    assert len(pivots) == 2 and len(free) == 1
