import random
from fractions import Fraction

import pytest

from flattori.cyclotomic import CycElt, cyclotomic_polynomial
from oracles import (
    cyc_det,
    cyc_from_phase,
    cyc_inverse,
    cyc_mul,
    cyc_one,
    cyc_sub,
    nullspace,
    sparse_rref,
)


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
                za = cyc_from_phase(Fraction(a, L), L)
                zb = cyc_from_phase(Fraction(b, L), L)
                assert cyc_mul(za, zb) == cyc_from_phase(Fraction(a + b, L), L)


def test_root_of_unity_order():
    z = cyc_from_phase(Fraction(1, 5), 5)
    p = cyc_one(5)
    for _ in range(5):
        p = cyc_mul(p, z)
    assert p == cyc_one(5)


def test_inverse():
    rng = random.Random(3)
    for L in (1, 2, 3, 4, 6, 8, 12):
        deg = len(cyclotomic_polynomial(L)) - 1
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)]
            x = CycElt(L, coeffs)
            if not any(x.coeffs):
                continue
            assert cyc_mul(x, cyc_inverse(x)) == cyc_one(L)


def test_arithmetic_refuses_distinct_orders():
    # used to return an element of the left operand's order (a * b) or zero (a - b)
    a, b = cyc_from_phase(Fraction(1, 3), 3), cyc_from_phase(Fraction(1, 5), 5)
    for op in (cyc_mul, cyc_sub):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    with pytest.raises(ValueError):
        cyc_det([[a, b], [b, a]])


def test_nullspace_simple():
    L = 4
    one = cyc_one(L)
    i = cyc_from_phase(Fraction(1, 4), L)
    # x0 + i*x1 = 0, over 3 variables -> 2-dim solution space
    rows = [{0: one, 1: i}]
    basis = nullspace(rows, 3, L)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] == cyc_sub(CycElt.zero(L), cyc_mul(i, vec[1]))


def test_rref_rank():
    L = 1
    one = cyc_one(L)
    rows = [{0: one, 1: one}, {1: one, 2: one}, {0: one, 2: one}]
    pivots, free = sparse_rref(rows, 3, L)
    assert len(pivots) == 3  # over Q these three are independent
    rows = [{0: one, 1: one}, {1: one, 2: one},
            {0: one, 1: CycElt(L, [2]), 2: one}]  # dependent third
    pivots, free = sparse_rref(rows, 3, L)
    assert len(pivots) == 2 and len(free) == 1


@pytest.mark.parametrize("build", [
    lambda: CycElt(6.7, [Fraction(1, 10), 1]),
    lambda: CycElt(6, [0.1, 1]),
    lambda: CycElt(6, ["1", 0]),
    lambda: CycElt("6", [1, 0]),
    lambda: CycElt(0, []),
    lambda: CycElt(-3, [1, 0]),
    lambda: CycElt(6, [1, 0, 0]),
    lambda: cyc_from_phase(0.5, 2),
    lambda: cyc_from_phase(Fraction(1, 6), 6.0),
    lambda: cyc_from_phase("1/6", 6),
    lambda: cyc_from_phase(0, 0),
    lambda: cyc_from_phase(Fraction(1, 3), -3),
    lambda: cyc_from_phase(Fraction(1, 4), 6),
    lambda: CycElt.zero(0),
    lambda: CycElt.zero(6.0),
], ids=["float-L", "float-coeff", "str-coeff", "str-L", "zero-L", "negative-L",
        "wrong-length", "float-phase", "float-L-phase", "str-phase", "zero-L-phase",
        "negative-L-phase", "phase-outside-field", "zero-L-zero", "float-L-zero"])
def test_inexact_or_invalid_input_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_from_phase_stores_the_power_table_row():
    # the trusted store equals the checked constructor on every root, holds
    # exact Fractions and returns a fresh element each call
    for L in (1, 2, 3, 4, 5, 6, 8, 12, 15):
        for k in range(-L, 2 * L):
            z = cyc_from_phase(Fraction(k, L), L)
            assert z == CycElt(L, z.coeffs) and hash(z) == hash(CycElt(L, z.coeffs))
            assert type(z.L) is int and all(type(c) is Fraction for c in z.coeffs)
            assert z is not cyc_from_phase(Fraction(k, L), L)
    assert CycElt(True, [Fraction(3)]) == CycElt(1, [3])
