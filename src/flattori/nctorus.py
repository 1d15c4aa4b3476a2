"""Rational noncommutative torus invariants and the isomorphism decision.

The deformation parameter is a rational skew form theta; only the phases
e(theta_ij) matter, so everything is invariant under integer shifts and
GL(n, Z) congruence.  Isomorphism is decided on theta's block normal form
(the Disney-Elliott-Kumjian-Raeburn classification made effective), and
every positive answer ships an exact integral certificate (T, shift) that
is verified literally before being returned.

Normal form.  `_blocks` reads symplectic_normal_form of ell theta as T with
det T = +-1 and T theta T^t = [[0, D, 0], [-D, 0, 0], [0, 0, 0]],
D = diag(p_t / q_t) in lowest terms, q_1 | q_2 | ...  Mod Z the blocks with
q_t = 1 vanish like the free directions; the q_t > 1 are the chain, and the
largest is ell.  T with its rows ordered as the chain's first vectors, its
second vectors, then the rest, is M with M theta M^t = N(q, p) mod Z: the
chain's blocks (p_t / q_t) J, padded with zeros.  R, scaling second vector
t by a unit r_t mod ell with r_t = p'_t / p_t mod q_t, takes N(q, p) to
N(q, p'), so theta ~ theta' exactly when the chains agree and some h in
Stab(N(q, p')) mod ell has det h = eps / prod r_t, eps = +-1; then
g = M'^-1 h R M mod ell lifts to the certificate.

Theorem.  Let k be the chain length, C = q_1 when 2k = n, C = 1 otherwise.
The determinants of Stab(N mod ell) are exactly the units = 1 mod C.  For
p^a || ell let A = a - v_p(q_1) (A = a when 2k < n) and c = a - A.
  (>=) Scaling a free direction, or a vector of block 1, by u = 1 mod p^c
  multiplies one row and column of ell N, whose entries have valuation
  >= A, by u; they change by multiples of p^(c + A) = p^a.
  (<=) Let c >= 1, so n = 2k and p | q_t, p not dividing p_t, for every t:
  ell p_t / q_t has valuation a_t = a - v_p(q_t) <= A.  Lift G in Stab(N)
  to Z: G (ell N) G^t = ell N + E with E = 0 mod p^a, and Pf(ell N + E) =
  det G Pf(ell N) = det G p^(sum a_t) w with w a unit at p.  In the
  perfect-matching expansion of Pf(ell N + E) the standard matching gives
  prod_t (ell p_t / q_t + E_t) = p^(sum a_t) w (1 + O(p^(a - A))).  Any
  other matching crosses a set B of at least two whole blocks (a vertex
  matched outside its block leaves its partner to be matched outside too);
  its term has valuation at least sum_(t not in B) a_t + |B| a >=
  sum a_t + 2 (a - A).  So det G = 1 mod p^(a - A).

Decision.  The p^c multiply to C, and C | q_t for every t, so theta ~
theta' exactly when the chains agree and prod p'_t = eps prod p_t mod C.
One h then serves every prime: it scales the first chain second vector, or
the first remaining row when 2k < n, by eps / prod r_t.  `iso_decide` tests,
in order: n and m, ell (the chain's largest q_t, so no normal form is
needed to compare it), equal frac (T = I), q_theta (theta's is the product
of its chain, so only theta' takes a Smith form), the chain, the unit class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, isqrt, prod

from .bundles import VectorBundleClass, endo
from .cohomology import AltFormZ
from .exact_linalg import (
    IntMatrix,
    SkewRatForm,
    _instance,
    _int,
    _int_matrix,
    _positive,
    _skew_congruence,
    inverse_mod,
    lift_unimodular_mod,
    smith_normal_form,
    symplectic_normal_form,
)
from .projrep import ProjectiveRep, _clock_shift_rep, _normal_form_blocks


@dataclass(frozen=True)
class NCTorusParams:
    """C(T^n_theta) tensored with m x m matrices."""

    n: int
    theta: SkewRatForm
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n", _int(self.n))
        object.__setattr__(self, "m", _positive(self.m, "matrix amplification"))
        if _instance(self.theta, SkewRatForm).n != self.n:
            raise ValueError("theta size does not match n")


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

    That index is the size of the image of the integer numerators S mod ell,
    prod ell / gcd(d_i, ell) over the invariant factors d_i that
    `smith_normal_form` returns.  It depends on S mod ell only (both span
    the same lattice with ell Z^n), so the Smith form runs on the residues.
    It must be a perfect square, and a failure would falsify the underlying
    lemma, so it aborts loudly."""
    ell = _instance(theta, SkewRatForm).ell
    index = prod(ell // gcd(d, ell) for d in smith_normal_form(theta.S.mod(ell)))
    root = isqrt(index)
    if root * root != index:
        raise AssertionError(f"lattice index {index} is not a perfect square")
    return root


def _blocks(theta: SkewRatForm):
    """(rows of T, pairs) of theta's block normal form: pairs (ell / g, e / g),
    g = gcd(e, ell), for the alternating divisors e of ell * theta in reversed
    order, so the q_t ascend in divisibility; T lists the blocks' first
    vectors, then their second vectors, then the free directions."""
    nf = symplectic_normal_form(theta.S)
    rows, k = nf.T.entries, len(nf.divisors)
    order = range(k - 1, -1, -1)
    rows = [rows[2 * t] for t in order] + [rows[2 * t + 1] for t in order] + list(rows[2 * k:])
    return rows, [(theta.ell // (g := gcd(e, theta.ell)), e // g) for e in nf.divisors[::-1]]


def normal_form(theta: SkewRatForm) -> NormalFormResult:
    """GL(n, Z) block normal form of a rational skew form (`_blocks`).  The
    certificate is checked literally before returning: T theta T^t, read by
    `projrep._normal_form_blocks`, gives the same pairs."""
    rows, blocks = _blocks(_instance(theta, SkewRatForm))
    T, qs = _int_matrix(rows), [q for q, _ in blocks]
    if (_normal_form_blocks(theta.congruence(T)) != blocks
            or any(qs[i + 1] % qs[i] for i in range(len(qs) - 1))
            or prod(qs) != q_theta(theta)):
        raise AssertionError("normal form failed its certificate check")
    return NormalFormResult(T=T, blocks=tuple(blocks), free_rank=theta.n - 2 * len(blocks))


def clock_shift_rep(theta: SkewRatForm, nf: NormalFormResult) -> ProjectiveRep:
    """The irreducible projective representation of theta for its normal form
    nf: the clock/shift words of nf's blocks for the rows of T^-1, verified
    on theta mod Z; q_theta above projrep.REP_DIM_LIMIT is refused."""
    nf = _instance(nf, NormalFormResult)
    return _clock_shift_rep(_instance(theta, SkewRatForm), nf.blocks,
                            nf.T.inverse_unimodular().entries)


def bundle_of(theta: SkewRatForm):
    """Realization data: the rank-q_theta projectively flat vector class, its
    endomorphism matrix-bundle class, and the attached projective
    representation `clock_shift_rep(theta, normal_form(theta))`, whose
    dimension is the rank."""
    rep = clock_shift_rep(theta, normal_form(theta))
    vector = VectorBundleClass(rep.dim, AltFormZ(theta.scaled_int(rep.dim)))
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


def iso_decide(p1: NCTorusParams, p2: NCTorusParams) -> IsoDecision:
    """Decide C(T^n_theta) (x) M_m = C(T^n'_theta') (x) M_m'.

    Reject on n or m mismatch, then on different ell (the largest element
    of the chain, so this needs no normal form).  Equal frac(theta) and
    frac(theta') are isomorphic by T = I, before any normal form.  Otherwise
    reject on different q_theta (theta's read from its chain), on different
    chains or on different unit classes mod C (module docstring).  A
    positive answer's certificate, I or the integral lift of g mod ell, is
    verified literally."""
    p1, p2 = _instance(p1, NCTorusParams), _instance(p2, NCTorusParams)
    n, theta, theta2 = p1.n, p1.theta, p2.theta
    if n != p2.n or p1.m != p2.m or theta.ell != theta2.ell:
        return IsoDecision(IsoStatus.NOT_ISO)
    f1, f2 = theta.frac(), theta2.frac()
    if f1 == f2:
        return _verified(theta, theta2, IntMatrix.identity(n))
    sides = []
    for f in (f1, f2):  # rows: chain first vectors, chain second vectors, the rest
        rows, pairs = _blocks(f)
        if f is f1 and prod(q for q, _ in pairs) != q_theta(theta2):  # = q_theta(theta)
            return IsoDecision(IsoStatus.NOT_ISO)
        K, j = len(pairs), sum(q == 1 for q, _ in pairs)
        rest = rows[:j] + rows[K:K + j] + rows[2 * K:]
        sides.append((rows[j:K] + rows[K + j:2 * K] + rest, pairs[j:]))
    (rows1, chain1), (rows2, chain2) = sides
    if [q for q, _ in chain1] != [q for q, _ in chain2]:
        return IsoDecision(IsoStatus.NOT_ISO)
    k = len(chain1)
    C = chain1[0][0] if 2 * k == n else 1
    P1, P2 = prod(p for _, p in chain1), prod(p for _, p in chain2)
    eps = next((e for e in (1, -1) if (P2 - e * P1) % C == 0), None)
    if eps is None:
        return IsoDecision(IsoStatus.NOT_ISO)
    ell, R = f1.ell, 1
    for t, ((q, p), (_, p_prime)) in enumerate(zip(chain1, chain2)):
        r = p_prime * pow(p, -1, q) % q
        while gcd(r, ell) != 1:  # some lift of a unit mod q is a unit mod ell
            r += q
        rows1[k + t] = [r * x % ell for x in rows1[k + t]]
        R = R * r % ell
    i = k if 2 * k == n else 2 * k
    u = eps * pow(R, -1, ell)
    rows1[i] = [u * x % ell for x in rows1[i]]
    g = inverse_mod(_int_matrix(rows2), ell) @ _int_matrix(rows1).mod(ell)  # read mod ell
    return _verified(theta, theta2, lift_unimodular_mod(g, ell))


def _verified(theta: SkewRatForm, theta2: SkewRatForm, T: IntMatrix) -> IsoDecision:
    """ISO with the certificate (T, theta' - T theta T^t), whose shift must
    be integral: both forms have denominator ell and ell | S' - T S T^t."""
    ell, diff = theta.ell, theta2.S - _skew_congruence(T, theta.S)
    if theta2.ell != ell or any(x % ell for row in diff.entries for x in row):
        raise AssertionError("certificate failed literal verification")
    shift = _int_matrix([[x // ell for x in row] for row in diff.entries])
    return IsoDecision(IsoStatus.ISO, T=T, shift=shift)
