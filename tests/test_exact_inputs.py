"""Every integer and rational the library reads follows one rule: an exact
integer is an int, an integral Fraction or anything with __index__ (bools
and NumPy integers count), stored as an int; an exact rational is a
Fraction or an exact integer.  Anything else raises ValueError."""

from fractions import Fraction

import numpy as np
import pytest

from flattori.autofactor import (
    AffinePhase,
    GenPermPhaseMatrix,
    check_cocycle,
    clutching_omega,
    clutching_twist,
    det_cocycle,
    factor_from,
    mumford_c1,
)
from flattori.bundles import (
    MatrixBundleClass,
    VectorBundleClass,
    X_bundle,
    endo,
    omega,
    twist,
)
from flattori.cohomology import (
    AltFormModQ,
    AltFormZ,
    Orientation2,
    RootOfUnity,
    beta_reduce,
    fundamental_pairing,
    mu_q_image,
    pullback,
)
from flattori.cyclotomic import CycElt, cyclotomic_polynomial
from flattori.exact_linalg import (
    IntMatrix,
    SkewRatForm,
    inverse_mod,
    lift_unimodular_mod,
    smith_normal_form,
    symplectic_normal_form,
)
from flattori.nctorus import (
    NCTorusParams,
    bundle_of,
    clock_shift_rep,
    iso_decide,
    normal_form,
    q_theta,
)
from flattori.projrep import ProjectiveRep, commutant_dim, heisenberg_rep, intertwiner

H = Fraction(1, 2)
G = IntMatrix([[2, 1], [1, 1]])
C2 = AltFormZ([[0, 1], [-1, 0]])
THETA2 = SkewRatForm([[0, H], [-H, 0]])
THETA3 = SkewRatForm([[0, H, 0], [-H, 0, 0], [0, 0, 0]])
F = factor_from(3, 1)
ONE = AffinePhase((), 0)
ONE_BY_ONE = GenPermPhaseMatrix((0,), [ONE])


def _negated(x):
    """-x for the lower entry of a skew matrix; a value without negation
    stays as it is (the entry above it raises first)."""
    try:
        return -x
    except TypeError:
        return x


# integer parameter -> build a value from it
INTEGERS = {
    "IntMatrix entry": lambda x: IntMatrix([[x, 0]]),
    "IntMatrix.scale": lambda x: IntMatrix([[1, 2]]).scale(x),
    "IntMatrix.identity": IntMatrix.identity,
    "IntMatrix.mod": lambda x: IntMatrix([[5, -1]]).mod(x),
    "inverse_mod": lambda x: inverse_mod(G, x),
    "lift_unimodular_mod": lambda x: lift_unimodular_mod(G, x),
    "SkewRatForm ell": lambda x: SkewRatForm([[0, 1], [-1, 0]], x),
    "SkewRatForm.scaled_int": lambda x: SkewRatForm([[0, 1], [-1, 0]]).scaled_int(x),
    "AltFormZ entry": lambda x: AltFormZ([[0, x], [_negated(x), 0]]),
    "AltFormModQ modulus": lambda x: AltFormModQ([[0, 1], [-1, 0]], x),
    "RootOfUnity.__pow__": lambda x: RootOfUnity(Fraction(1, 5)) ** x,
    "mu_q_image k": lambda x: mu_q_image(x, 5),
    "mu_q_image q": lambda x: mu_q_image(1, x),
    "VectorBundleClass rank": lambda x: VectorBundleClass(x, C2),
    "X_bundle q": lambda x: X_bundle(x, 1),
    "X_bundle a": lambda x: X_bundle(2, x),
    "NCTorusParams n": lambda x: NCTorusParams(x, THETA3),
    "NCTorusParams m": lambda x: NCTorusParams(2, THETA2, x),
    "GenPermPhaseMatrix perm": lambda x: GenPermPhaseMatrix((x, 0, 1, 2), [ONE] * 4),
    "factor_from q": lambda x: factor_from(x, 1),
    "factor_from a": lambda x: factor_from(2, x),
    "check_cocycle trials": lambda x: check_cocycle(F, x),
    "check_cocycle seed": lambda x: check_cocycle(F, 3, seed=x),
    "CycElt L": lambda x: CycElt(x, (1, 0)),
    "CycElt.zero": CycElt.zero,
    "cyclotomic_polynomial": cyclotomic_polynomial,
}

# rational parameter -> build a value from it
RATIONALS = {
    "AffinePhase linear": lambda x: AffinePhase((x, 0), 0),
    "AffinePhase const": lambda x: AffinePhase((0,), x),
    "RootOfUnity phase": RootOfUnity,
    "SkewRatForm entry": lambda x: SkewRatForm([[0, x], [_negated(x), 0]]),
    "CycElt coefficient": lambda x: CycElt(3, (x, 0)),
}

# library-object parameter -> (the type it takes, a build that passes 3)
OBJECTS = {
    "NCTorusParams theta": ("SkewRatForm", lambda x: NCTorusParams(2, x)),
    "q_theta": ("SkewRatForm", q_theta),
    "VectorBundleClass c1": ("AltFormZ", lambda x: VectorBundleClass(2, x)),
    "MatrixBundleClass beta": ("AltFormModQ", MatrixBundleClass),
    "pullback c": ("AltFormZ", lambda x: pullback(x, G)),
    "pullback P": ("IntMatrix", lambda x: pullback(C2, x)),
    "SkewRatForm.congruence T": ("IntMatrix", lambda x: THETA2.congruence(x)),
    "smith_normal_form": ("IntMatrix", smith_normal_form),
    "symplectic_normal_form": ("IntMatrix", symplectic_normal_form),
    "inverse_mod M": ("IntMatrix", lambda x: inverse_mod(x, 3)),
    "lift_unimodular_mod g": ("IntMatrix", lambda x: lift_unimodular_mod(x, 3)),
    "beta_reduce c": ("AltFormZ", lambda x: beta_reduce(x, 3)),
    "fundamental_pairing form": ("AltFormZ or AltFormModQ", fundamental_pairing),
    "fundamental_pairing o": ("Orientation2", lambda x: fundamental_pairing(C2, x)),
    "fundamental_pairing o, mod q form": ("Orientation2",
                                          lambda x: fundamental_pairing(AltFormModQ(C2.mat, 3), x)),
    "endo": ("VectorBundleClass", endo),
    "twist e": ("VectorBundleClass", twist),
    "twist o": ("Orientation2", lambda x: twist(X_bundle(2, 1), x)),
    "omega a": ("MatrixBundleClass", omega),
    "omega o": ("Orientation2", lambda x: omega(endo(X_bundle(2, 1)), x)),
    "mumford_c1": ("ScalarFactor", mumford_c1),
    "det_cocycle": ("FactorOfAutomorphy", det_cocycle),
    "check_cocycle F": ("FactorOfAutomorphy", lambda x: check_cocycle(x, 3)),
    "clutching_twist": ("FactorOfAutomorphy", clutching_twist),
    "clutching_omega": ("FactorOfAutomorphy", clutching_omega),
    "ProjectiveRep gens": ("GenPermPhaseMatrix", lambda x: ProjectiveRep([x], SkewRatForm([[0]]))),
    "ProjectiveRep cocycle": ("SkewRatForm", lambda x: ProjectiveRep([ONE_BY_ONE], x)),
    "heisenberg_rep": ("SkewRatForm", heisenberg_rep),
    "commutant_dim": ("ProjectiveRep", commutant_dim),
    "intertwiner rep1": ("ProjectiveRep", lambda x: intertwiner(x, heisenberg_rep(THETA2))),
    "intertwiner rep2": ("ProjectiveRep", lambda x: intertwiner(heisenberg_rep(THETA2), x)),
    "normal_form": ("SkewRatForm", normal_form),
    "clock_shift_rep theta": ("SkewRatForm", lambda x: clock_shift_rep(x, normal_form(THETA2))),
    "clock_shift_rep nf": ("NormalFormResult", lambda x: clock_shift_rep(THETA2, x)),
    "bundle_of": ("SkewRatForm", bundle_of),
    "iso_decide p1": ("NCTorusParams", lambda x: iso_decide(x, NCTorusParams(2, THETA2))),
    "iso_decide p2": ("NCTorusParams", lambda x: iso_decide(NCTorusParams(2, THETA2), x)),
}

# exact inputs and the plain value each stands for
EXACT_INTEGERS = [(3, 3), (np.int64(3), 3), (Fraction(3, 1), 3), (True, 1)]
INEXACT = [2.0, 2.5, "3", None]


def _outcome(build, x):
    """(value, repr) of build(x), or the exception type it raises."""
    try:
        value = build(x)
    except Exception as exc:  # the type is the outcome
        return type(exc)
    return value, repr(value)


@pytest.mark.parametrize("name", sorted(INTEGERS))
def test_integer_parameters_follow_one_rule(name):
    build = INTEGERS[name]
    plain = _outcome(build, 3)
    assert not isinstance(plain, type), "3 is a valid value of every parameter here"
    for x, value in EXACT_INTEGERS:
        # the same result as the plain int, down to the repr: stored as an int
        assert _outcome(build, x) == _outcome(build, value), (name, x)
    for x in INEXACT + [Fraction(1, 2)]:
        with pytest.raises(ValueError):
            build(x)


@pytest.mark.parametrize("name", sorted(RATIONALS))
def test_rational_parameters_follow_one_rule(name):
    build = RATIONALS[name]
    for x, value in EXACT_INTEGERS + [(H, H)]:
        assert _outcome(build, x) == _outcome(build, Fraction(value)), (name, x)
        assert not isinstance(_outcome(build, x), type), (name, x)
    for x in INEXACT:
        with pytest.raises(ValueError):
            build(x)


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_a_wrong_object_is_refused_by_its_type(name):
    kind, build = OBJECTS[name]
    with pytest.raises(ValueError, match=rf"^not a {kind}: 3$"):
        build(3)


def test_one_rule_settles_the_old_disagreements():
    assert inverse_mod(G, Fraction(3, 1)) == inverse_mod(G, 3)
    assert (SkewRatForm([[0, np.int64(1)], [np.int64(-1), 0]])
            == SkewRatForm([[0, 1], [-1, 0]]))
    assert check_cocycle(factor_from(3, 1), True) == check_cocycle(factor_from(3, 1), 1)
    with pytest.raises(ValueError):
        SkewRatForm([[0, 1], [-1, 0]]).scaled_int(2.0)


def test_bad_values_are_named_and_shapes_checked():
    # the bad value of a is blamed, not the matrix entry -a built from it
    with pytest.raises(ValueError, match=r"^not an integer index: 1\.5$"):
        X_bundle(2, 1.5)
    with pytest.raises(ValueError, match=r"^rank must be an integer >= 1, got 0$"):
        VectorBundleClass(0, C2)
    for build in (lambda: Orientation2(1.0), lambda: Orientation2(2)):
        with pytest.raises(ValueError):
            build()
    assert repr(Orientation2(np.int64(-1))) == repr(Orientation2(-1))
