"""Exact classification of projectively flat vector bundles and flat matrix
bundles on tori, and the isomorphism decision for rational noncommutative
torus algebras."""

from .autofactor import (
    FactorOfAutomorphy,
    GenPermPhaseMatrix,
    check_cocycle,
    clutching_omega,
    clutching_twist,
    det_cocycle,
    factor_from,
    mumford_c1,
)
from .bundles import (
    MatrixBundleClass,
    VectorBundleClass,
    X_bundle,
    endo,
    omega,
    twist,
)
from .cohomology import (
    AltFormModQ,
    AltFormZ,
    RootOfUnity,
    beta_reduce,
    fundamental_pairing,
    mu_q_image,
    pullback,
)
from .exact_linalg import (
    IntMatrix,
    SkewRatForm,
    SymplecticNF,
    lift_unimodular_mod,
    smith_normal_form,
    symplectic_normal_form,
)
from .nctorus import (
    IsoDecision,
    IsoStatus,
    NCTorusParams,
    NormalFormResult,
    bundle_of,
    clock_shift_rep,
    iso_decide,
    normal_form,
    q_theta,
)
from .projrep import (
    ProjectiveRep,
    commutant_dim,
    heisenberg_rep,
    intertwiner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
