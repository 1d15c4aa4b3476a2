"""The value objects are immutable and compare and hash by value; a
projective representation compares by identity."""

import dataclasses
from fractions import Fraction

import oracles
import pytest

from flattori.autofactor import AffinePhase, GenPermPhaseMatrix, ScalarFactor
from flattori.bundles import MatrixBundleClass, VectorBundleClass
from flattori.cohomology import AltFormModQ, AltFormZ, RootOfUnity
from flattori.cyclotomic import CycElt
from flattori.exact_linalg import SkewRatForm
from flattori.projrep import ProjectiveRep, _clock_shift_rep

H = Fraction(1, 2)
T = Fraction(1, 3)
# clock and shift of the block 1/3, V U = e(1/3) U V
CLOCK_SHIFT_3 = _clock_shift_rep(SkewRatForm([[0, -1], [1, 0]], 3), [(3, 1)],
                                 [(0, 1), (1, 0)]).gens


# class name -> (build one value from a parameter, a parameter, a different one)
VALUES = {
    "AffinePhase": (lambda c: AffinePhase((H, 1), c), T, H),
    "GenPermPhaseMatrix": (lambda c: GenPermPhaseMatrix(
        (1, 0), [AffinePhase((), c), AffinePhase((), 0)]), T, H),
    "ScalarFactor": (lambda c: ScalarFactor([[0, 1], [0, 0]], [c, 0]), T, H),
    "VectorBundleClass": (lambda a: VectorBundleClass(3, AltFormZ([[0, a], [-a, 0]])), 1, 2),
    "MatrixBundleClass": (lambda a: MatrixBundleClass(AltFormModQ([[0, a], [-a, 0]], 3)), 1, 2),
    "AltFormZ": (lambda a: AltFormZ([[0, a], [-a, 0]]), 1, 2),
    "AltFormModQ": (lambda q: AltFormModQ([[0, 1], [-1, 0]], q), 3, 4),
    "RootOfUnity": (RootOfUnity, T, H),
    "CycElt": (lambda k: oracles.cyc_from_phase(Fraction(k, 6), 6), 1, 2),
    "SkewRatForm": (lambda x: SkewRatForm([[0, x], [-x, 0]]), T, H),
}


@pytest.mark.parametrize("name", sorted(VALUES) + ["ProjectiveRep"])
def test_value_objects_are_frozen(name):
    if name == "ProjectiveRep":
        value = ProjectiveRep(CLOCK_SHIFT_3, SkewRatForm([[0, -T], [T, 0]]))
    else:
        build, param, _ = VALUES[name]
        value = build(param)
    assert type(value).__name__ == name
    fields = [f.name for f in dataclasses.fields(value)]
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    # a name that is no field has no slot; Python 3.11 raises TypeError there
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 0


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_objects_compare_and_hash_by_value(name):
    build, param, other = VALUES[name]
    a, b = build(param), build(param)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != build(other)
    assert len({a, b, build(other)}) == 2


def test_projective_reps_compare_by_identity():
    gens = CLOCK_SHIFT_3
    cocycle = SkewRatForm([[0, -T], [T, 0]])
    r1, r2 = ProjectiveRep(gens, cocycle), ProjectiveRep(gens, cocycle)
    assert r1 == r1 and r1 != r2
    assert r1.gens == r2.gens and r1.cocycle == r2.cocycle
    assert hash(r1) != hash(r2)
