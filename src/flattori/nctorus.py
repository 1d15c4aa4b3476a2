"""Rational noncommutative torus invariants and the isomorphism decision.

The deformation parameter is a rational skew form theta; only the phases
e(theta_ij) matter, so everything is invariant under integer shifts and
GL(n, Z) congruence.  With ell the common denominator of frac(theta) and
frac(theta'), the pair is isomorphic exactly when S = ell frac(theta) and
S' = ell frac(theta') are congruent mod ell under Gamma, the matrices mod
ell with det +-1 (the image of GL(n, Z)).  This is decided from invariants
(the Disney-Elliott-Kumjian-Raeburn classification made effective), and
every positive answer ships an exact integral certificate (T, shift) that
is verified literally before being returned.

Invariants.  symplectic_normal_form gives T with det T = +-1 and
T S T^t = (+)_j e_j J, e_1 | e_2 | ... | e_r, then zero rows.  Scaling row
2j of T by a unit u_j with u_j e_j = gcd(e_j, ell) mod ell gives M with
M S M^t = N = (+)_j gcd(e_j, ell) J mod ell.  N is fixed by the chain of
denominators ell / gcd(e_j, ell) > 1, so equal chains give one N for both
sides, and S ~ S' exactly when some h in Stab(N) has
det h = eps det M' / det M with eps = +-1; then g = M'^-1 h M.

Theorem.  For p^k || ell let a_j = min(v_p(gcd(e_j, ell)), k), let A be
max a_j (A = k when 2r < n: N has zero rows) and c = k - A.  Then the
determinants of Stab(N mod p^k) are exactly the units u = 1 mod p^c.
  (>=) Scaling a zero direction, or the first vector of a block with
  a_j = A, by u multiplies one row and column of N, whose entries have
  valuation >= A, by u; they change by multiples of p^(c + A) = p^k.
  (<=) Let c >= 1, so n = 2r, and lift G in Stab(N) to Z: G N G^t = N + E
  with E = 0 mod p^k, and Pf(N + E) = det G Pf(N) = det G p^(sum a) w with
  w a unit at p.  In the perfect-matching expansion of Pf(N + E) the
  standard matching {2j, 2j+1} gives prod_j (gcd(e_j, ell) + E_(2j,2j+1))
  = p^(sum a) w (1 + O(p^(k - A))).  Any other matching crosses a set B of
  at least two whole blocks (a vertex matched outside its block leaves its
  partner to be matched outside too); its term has valuation at least
  sum_(j not in B) a_j + |B| k >= sum a + 2 (k - A).  So det G = 1
  mod p^(k - A).

Decision.  The gcd(e_j, ell) divide each other in order, so the last block
has the largest a_j at every p at once.  The constraints eps delta = 1
mod p^c, delta = det M' / det M, combine to one modulus
C = ell / gcd(e_r, ell) (C = 1 when 2r < n), and one h serves every prime:
it scales the first vector of the last block, or the last coordinate when
2r < n, by eps delta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, isqrt, lcm, prod

from .bundles import classify_projflat, endo
from .cohomology import AltFormZ
from .exact_linalg import (
    IntMatrix,
    SkewRatForm,
    _int_tuple,
    inverse_mod,
    lift_unimodular_mod,
    smith_normal_form,
    symplectic_normal_form,
)
from .projrep import ProjectiveRep, _clock_shift_rep, _normal_form_blocks, radical


@dataclass(frozen=True)
class NCTorusParams:
    """C(T^n_theta) tensored with m x m matrices."""

    n: int
    theta: SkewRatForm
    m: int = 1

    def __post_init__(self):
        for name, value in zip(("n", "m"), _int_tuple((self.n, self.m))):
            object.__setattr__(self, name, value)
        if self.theta.n != self.n:
            raise ValueError("theta size does not match n")
        if self.m < 1:
            raise ValueError("matrix amplification must be >= 1")


@dataclass(frozen=True)
class NormalFormResult:
    """Certificate T with T theta T^t = [[0, D, 0], [-D, 0, 0], [0, 0, 0]],
    D = diag(p_t / q_t) for the blocks, integer pairs (q_t, p_t) in lowest
    terms with q_1 | q_2 | ...; prod q_t = q_theta."""

    T: IntMatrix
    blocks: tuple
    free_rank: int


def q_theta(theta: SkewRatForm) -> int:
    """Square root of the lattice index [(Z^n + im theta) : Z^n].

    Computed by both routes -- the Smith form of the stacked generators and
    the radical index of the bicharacter e(theta) -- which must agree and be
    a perfect square; a failure would falsify the underlying lemma, so it
    aborts loudly."""
    n, ell, S = theta.n, theta.ell, theta.S
    # generators as rows: the lattice of the columns of [ell I | S], as S^t = -S
    stacked = IntMatrix([[ell * (i == j) for j in range(n)] for i in range(n)] + list(S))
    D, _ = smith_normal_form(stacked)
    index = ell ** n // prod(D[i][i] for i in range(n))

    _, rad_index = radical(theta)
    if index != rad_index:
        raise AssertionError(f"index formulas disagree: {index} vs {rad_index}")
    root = isqrt(index)
    if root * root != index:
        raise AssertionError(f"lattice index {index} is not a perfect square")
    return root


def normal_form(theta: SkewRatForm) -> NormalFormResult:
    """GL(n, Z) block normal form of a rational skew form.

    Blocks are (ell / g, e / g), g = gcd(e, ell), for the alternating
    divisors e of ell * theta in reversed order, so the q_t ascend in
    divisibility.  The certificate is checked literally before returning:
    T theta T^t, read by `projrep._normal_form_blocks`, gives the same pairs."""
    n, ell = theta.n, theta.ell
    nf = symplectic_normal_form(theta.S)
    k = len(nf.divisors)
    order = range(k - 1, -1, -1)
    perm_rows = [2 * t for t in order] + [2 * t + 1 for t in order] + list(range(2 * k, n))
    T = IntMatrix([nf.T.entries[r] for r in perm_rows])
    blocks = tuple((ell // (g := gcd(e, ell)), e // g) for e in nf.divisors[::-1])
    qs = [q for q, _ in blocks]
    if (_normal_form_blocks(theta.congruence(T)) != list(blocks)
            or any(qs[i + 1] % qs[i] for i in range(len(qs) - 1))
            or prod(qs) != q_theta(theta)):
        raise AssertionError("normal form failed its certificate check")
    return NormalFormResult(T=T, blocks=blocks, free_rank=n - 2 * k)


def c1_of_E_theta(theta: SkewRatForm) -> AltFormZ:
    """First Chern class of the canonical projectively flat module bundle:
    q_theta * theta, an integral alternating form (sign fixed as +)."""
    q = q_theta(theta)
    if q % theta.ell:
        raise AssertionError("q_theta * theta failed to be integral")
    return AltFormZ(theta.scaled_int(q))


def clock_shift_rep(theta: SkewRatForm, nf: NormalFormResult) -> ProjectiveRep:
    """The irreducible projective representation of theta for its normal form
    nf: the clock/shift words of nf's blocks for the rows of T^-1, verified
    on theta's cocycle; q_theta above projrep.REP_DIM_LIMIT is refused."""
    return _clock_shift_rep(theta, nf.blocks, nf.T.inverse_unimodular().entries)


def bundle_of(theta: SkewRatForm):
    """Realization data: the rank-q_theta projectively flat vector class, its
    endomorphism matrix-bundle class, and the attached projective
    representation `clock_shift_rep(theta, normal_form(theta))`, whose
    dimension is the rank."""
    rep = clock_shift_rep(theta, normal_form(theta))
    vector = classify_projflat(theta.n, rep.dim, AltFormZ(theta.scaled_int(rep.dim)))
    return vector, endo(vector), rep


class IsoStatus(enum.Enum):
    ISO = "iso"
    NOT_ISO = "not-iso"
    UNDECIDED = "undecided"  # never returned; perfbench/workloads.py names it


@dataclass(frozen=True)
class IsoDecision:
    status: IsoStatus
    T: IntMatrix | None = None
    shift: IntMatrix | None = None

    @property
    def is_iso(self) -> bool:
        return self.status is IsoStatus.ISO


def _unit_to_gcd(e: int, ell: int) -> int:
    """A unit u mod ell with u * e = gcd(e, ell) mod ell."""
    g = gcd(e, ell)
    u = pow(e // g, -1, ell // g)
    while gcd(u, ell) != 1:  # some lift of a unit mod ell / g is a unit mod ell
        u += ell // g
    return u


def _scaled(nf, ell: int):
    """(rows of M, det M / det T mod ell) for M = T with row 2j scaled by
    _unit_to_gcd(e_j, ell): M S M^t = (+)_j gcd(e_j, ell) J mod ell."""
    rows = [list(r) for r in nf.T.entries]
    units = 1
    for j, e in enumerate(nf.divisors):
        u = _unit_to_gcd(e, ell)
        rows[2 * j] = [u * x % ell for x in rows[2 * j]]
        units = units * u % ell
    return rows, units


def _congruence(nf1, nf2, ell: int):
    """g mod ell with det g = +-1 and g S1 g^t = S2 mod ell, for the
    symplectic normal forms of S1 and S2 with equal denominator chains, or
    None when there is none (module docstring)."""
    rows1, units1 = _scaled(nf1, ell)
    rows2, units2 = _scaled(nf2, ell)
    n = len(rows1)
    r = len(nf1.divisors)
    C = ell // gcd(nf1.divisors[-1], ell) if 2 * r == n else 1
    delta = units2 * pow(units1, -1, ell)
    eps = next((e for e in (1, -1) if (e * delta - 1) % C == 0), None)
    if eps is None:
        return None
    i = n - 2 if 2 * r == n else n - 1
    rows1[i] = [eps * delta * x % ell for x in rows1[i]]
    return (inverse_mod(IntMatrix(rows2), ell) @ IntMatrix(rows1)).mod(ell)


def _chain(nf, ell: int):
    """Denominators ell / gcd(e_j, ell) > 1 of the divisor chain: the finite
    pairing invariants of the class."""
    return tuple(ell // gcd(e, ell) for e in nf.divisors if e % ell)


def iso_decide(p1: NCTorusParams, p2: NCTorusParams) -> IsoDecision:
    """Decide C(T^n_theta) (x) M_m = C(T^n'_theta') (x) M_m'.

    Reject on n or m mismatch, on different q_theta, or on different
    denominator chains; otherwise decide by the unit class of the normal
    forms (module docstring).  A positive answer's certificate, I or the
    integral lift of g mod ell, is verified literally."""
    if p1.n != p2.n or p1.m != p2.m:
        return IsoDecision(IsoStatus.NOT_ISO)
    theta, theta2 = p1.theta, p2.theta
    if q_theta(theta) != q_theta(theta2):
        return IsoDecision(IsoStatus.NOT_ISO)
    f1, f2 = theta.frac(), theta2.frac()
    ell = lcm(f1.ell, f2.ell)
    nf1 = symplectic_normal_form(f1.scaled_int(ell))
    nf2 = symplectic_normal_form(f2.scaled_int(ell))
    if _chain(nf1, ell) != _chain(nf2, ell):
        return IsoDecision(IsoStatus.NOT_ISO)
    if f1 == f2:
        T = IntMatrix.identity(p1.n)
    else:
        g = _congruence(nf1, nf2, ell)
        if g is None:
            return IsoDecision(IsoStatus.NOT_ISO)
        T = lift_unimodular_mod(g, ell)
    moved = theta.congruence(T)
    diff = SkewRatForm(theta2.S.scale(moved.ell) - moved.S.scale(theta2.ell),
                       theta2.ell * moved.ell)
    if diff.ell != 1:
        raise AssertionError("lifted certificate failed literal verification")
    return IsoDecision(IsoStatus.ISO, T=T, shift=diff.S)

