"""Exact factor-of-automorphy engine over generalized permutation-phase
matrices.

The symbolic layer is exact: matrix entries are phases e(l.x + c) with
rational l and c, phases compare equal mod 1, and products/inverses/
translations stay inside the class.  A phase is stored as integer
numerators over one common denominator in lowest terms, so its arithmetic
is integer arithmetic and equal phases have equal fields; `.linear` and
`.const` give the Fractions.  The numerical layer (clutching_twist,
clutching_omega) is the only place double-precision complex arithmetic is
allowed; every value it returns is snapped to an exact integer or exact
q-torsion phase, and snap failure is an error, never a silent rounding.
The clutching loop is monomial, so it is sampled as q nonzero entries per
sample; a sample's determinant is its permutation's sign times their product.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cohomology import AltFormZ, RootOfUnity
from .exact_linalg import _int_tuple, _rational

UNWRAP_STEP_BOUND = math.pi / 2
SNAP_TOL_TURNS = 1e-6


class UnwrapError(RuntimeError):
    """Phase unwrapping saw a step at or beyond the soundness bound."""


class SnapError(RuntimeError):
    """A numerical value landed too far from every allowed exact value."""


@dataclass(frozen=True, slots=True)
class AffinePhase:
    """The phase e(linear . x + const); constants are identified mod 1,
    so (-1)^k sign characters live here as half-integer constants k/2.

    Stored as integer numerators over one common denominator: linear =
    nums / den and const = num / den with 0 <= num < den, in lowest terms
    (gcd(den, num, *nums) = 1), so equal phases have equal fields."""

    den: int
    nums: tuple
    num: int

    def __init__(self, linear, const):
        coeffs = [_rational(c) for c in linear]
        const = _rational(const)
        den = lcm(const.denominator, *(c.denominator for c in coeffs))
        _phase(den, tuple(c.numerator * (den // c.denominator) for c in coeffs),
               const.numerator * (den // const.denominator), self)

    @property
    def linear(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def const(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __add__(self, other: "AffinePhase") -> "AffinePhase":
        if len(self.nums) != len(other.nums):
            raise ValueError("phase dimension mismatch")
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _phase(d1, tuple(map(operator.add, self.nums, other.nums)),
                          self.num + other.num)
        den = lcm(d1, d2)
        k1, k2 = den // d1, den // d2
        return _phase(den, tuple(a * k1 + b * k2 for a, b in zip(self.nums, other.nums)),
                      self.num * k1 + other.num * k2)

    def __neg__(self) -> "AffinePhase":
        return _phase(self.den, tuple(-a for a in self.nums), -self.num)

    def __sub__(self, other: "AffinePhase") -> "AffinePhase":
        return self + (-other)

    def translate(self, gamma) -> "AffinePhase":
        """Substitute x -> x + gamma, for gamma with exact rational entries."""
        nums = self.nums
        if len(gamma) != len(nums):
            raise ValueError("translation dimension mismatch")
        if all(type(g) is int for g in gamma):
            return _phase(self.den, nums, self.num + sum(map(operator.mul, nums, gamma)))
        shift = sum(map(operator.mul, self.linear, map(_rational, gamma)))
        return AffinePhase(self.linear, self.const + shift)

    def __repr__(self):
        return f"e({' + '.join(str(l) + f'*x{k}' for k, l in enumerate(self.linear) if l)}"\
               f" + {self.const})"


def _phase(den: int, nums: tuple, num: int, p: AffinePhase | None = None) -> AffinePhase:
    """The phase e((nums . x + num) / den) from integer numerators, in lowest
    terms with num reduced mod den; stored into p when given (by __init__)."""
    num %= den
    g = gcd(den, num, *nums)
    if g != 1:
        den, num, nums = den // g, num // g, tuple(n // g for n in nums)
    p = object.__new__(AffinePhase) if p is None else p
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "num", num)
    return p


def _perm_parity(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return inv % 2


@dataclass(frozen=True, slots=True)
class GenPermPhaseMatrix:
    """q x q matrix with exactly one nonzero phase entry per row and column:
    entry (perm[j], j) carries phases[j].  Closed under product, inverse,
    translation; all entries have modulus one, so these are unitary."""

    size: int
    perm: tuple
    phases: tuple

    def __init__(self, perm, phases):
        perm = _int_tuple(perm)
        phases = tuple(phases)
        if not perm:
            raise ValueError("a matrix needs at least one row")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        if len(phases) != len(perm):
            raise ValueError("one phase per column required")
        if len({len(p.nums) for p in phases}) > 1:
            raise ValueError("mixed phase dimensions")
        _matrix(perm, phases, self)

    @property
    def dim(self) -> int:
        return self.phases[0].dim

    def __matmul__(self, other: "GenPermPhaseMatrix") -> "GenPermPhaseMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.size))
        phases = tuple(self.phases[other.perm[j]] + other.phases[j]
                       for j in range(self.size))
        return _matrix(perm, phases)

    def inverse(self) -> "GenPermPhaseMatrix":
        inv = tuple(sorted(range(self.size), key=self.perm.__getitem__))
        return _matrix(inv, tuple(-self.phases[i] for i in inv))

    def translate(self, gamma) -> "GenPermPhaseMatrix":
        return _matrix(self.perm, tuple(p.translate(gamma) for p in self.phases))

    def scalar_mul(self, phase: AffinePhase) -> "GenPermPhaseMatrix":
        return _matrix(self.perm, tuple(p + phase for p in self.phases))

    def det(self) -> AffinePhase:
        """Permutation sign (as a half-integer constant) times all phases."""
        return sum(self.phases, _phase(2, (0,) * self.dim, _perm_parity(self.perm)))

    def __repr__(self):
        return f"GenPermPhaseMatrix(perm={self.perm}, phases={list(self.phases)})"


def _matrix(perm: tuple, phases: tuple, m: GenPermPhaseMatrix | None = None):
    """The matrix of a tuple of Python int perm and a tuple of phases, stored
    unchecked: the library's own products and builders are valid by
    construction.  Stored into m when given (by __init__, after its checks)."""
    m = object.__new__(GenPermPhaseMatrix) if m is None else m
    object.__setattr__(m, "size", len(perm))
    object.__setattr__(m, "perm", perm)
    object.__setattr__(m, "phases", phases)
    return m


def rieffel_N(q: int, a: int, v: int = 1) -> GenPermPhaseMatrix:
    """N^v in closed form, for N the cyclic q x q matrix of x = (s, t) with
    ones on the superdiagonal and e(-a s) in the bottom-left corner.  Column
    j goes to row (j - v) mod q with e(-a s) once per pass of the walk j,
    j - 1, ..., j - v + 1 through column 0: (v + q - 1 - j) // q passes, a
    negative count (the passes of N^-1) when v < 0."""
    q, a, v = _int_tuple((q, a, v))
    if q < 1:
        raise ValueError("q must be >= 1")
    passes = [(v + q - 1 - j) // q for j in range(q)]  # at most two values
    phase = {k: _phase(1, (-a * k, 0), 0) for k in set(passes)}
    return _matrix(tuple([(j - v) % q for j in range(q)]), tuple([phase[k] for k in passes]))


@dataclass(frozen=True)
class FactorOfAutomorphy:
    """Lattice cocycle gamma = (u, v) -> N(s)^v on the 2-torus."""

    q: int
    a: int

    def __post_init__(self):
        # rieffel_N rejects inexact q, a and q < 1; cocycle identity on generator pairs
        if any(_violates(self, g1, g2) for g1 in ((1, 0), (0, 1), (1, 1))
               for g2 in ((1, 0), (0, 1), (-1, 1))):
            raise AssertionError("cocycle identity failed at construction")

    def value(self, gamma) -> GenPermPhaseMatrix:
        u, v = _int_tuple(gamma)
        return rieffel_N(self.q, self.a, v)

    def records(self, gammas=((1, 0), (0, 1))):
        """Dump format: one (gamma, perm, phases) record per lattice vector,
        each phase as the (s-coefficient, t-coefficient, constant) strings."""
        return [(tuple(g), list(m.perm), [[str(x) for x in (*p.linear, p.const)] for p in m.phases])
                for g in gammas for m in [self.value(g)]]


def factor_from(q: int, a: int) -> FactorOfAutomorphy:
    return FactorOfAutomorphy(q, a)


def _violates(F, g1, g2) -> bool:
    """Whether N_{g1+g2}(x) = N_{g1}(x+g2) N_{g2}(x) fails, checked exactly."""
    return F.value((g1[0] + g2[0], g1[1] + g2[1])) != F.value(g1).translate(g2) @ F.value(g2)


def check_cocycle(F, trials: int, seed: int = 0):
    """Verify the cocycle identity on random pairs with entries bounded by
    10.  Returns the list of violating pairs."""
    rng = random.Random(seed)
    pairs = [tuple((rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(2))
             for _ in range(trials)]
    return [(g1, g2) for g1, g2 in pairs if _violates(F, g1, g2)]


@dataclass(frozen=True, slots=True)
class ScalarFactor:
    """Abelian (1 x 1) factor of automorphy with affine exponents.

    The family gamma -> e(f_gamma) is generated by the exponents of the
    lattice generators: phases[i] is f_{e_i}, with x-linear part xcoeff
    row i and constant consts[i] (mod 1; sign characters appear as halves).
    Values on all of Z^n follow from the cocycle recursion
    f_{gamma+e}(x) = f_gamma(x+e) + f_e(x), summed in closed form.
    """

    n: int
    phases: tuple

    def __init__(self, xcoeff, consts):
        rows, consts = [tuple(row) for row in xcoeff], tuple(consts)
        n = len(rows)
        if any(len(row) != n for row in rows) or len(consts) != n:
            raise ValueError("generator data must be square")
        _store_scalar(self, tuple(AffinePhase(row, c) for row, c in zip(rows, consts)))

    def value(self, gamma) -> AffinePhase:
        """The recursion walked coordinate by coordinate, in closed form: with
        f_i = l_i . x + c_i the generator phases,
        f_gamma(x) = sum_i gamma_i f_i(x) + sum_i l_i[i] gamma_i (gamma_i - 1) / 2
        + sum_(j < i) gamma_j gamma_i l_j[i], on numerators over one denominator."""
        gamma = _int_tuple(gamma)
        if len(gamma) != self.n:
            raise ValueError("lattice vector has wrong length")
        den = lcm(*(p.den for p in self.phases))
        nums, num = [0] * self.n, 0
        for j, (g, p) in enumerate(zip(gamma, self.phases)):
            k = den // p.den
            nums = [a + k * g * b for a, b in zip(nums, p.nums)]
            later = sum(map(operator.mul, gamma[j + 1:], p.nums[j + 1:]))
            num += k * (g * p.num + p.nums[j] * (g * (g - 1) // 2) + g * later)
        return _phase(den, tuple(nums), num)


def _store_scalar(f: ScalarFactor, phases: tuple) -> ScalarFactor:
    """Set the generator phases of f, after the coherence check."""
    # the family exists iff the antisymmetrized x-coefficients are integral
    for i, pi in enumerate(phases):
        for j, pj in enumerate(phases):
            if (pi.nums[j] * pj.den - pj.nums[i] * pi.den) % (pi.den * pj.den):
                raise ValueError("generator exponents are not coherent")
    object.__setattr__(f, "n", len(phases))
    object.__setattr__(f, "phases", phases)
    return f


def det_cocycle(F: FactorOfAutomorphy) -> ScalarFactor:
    """Determinant of a factor of automorphy, as a scalar factor.

    For the rank-q family this is gamma = (u,v) -> (-1)^{v(q-1)} e(-a v s);
    the sign rides along as the half-integer constant v(q-1)/2."""
    return _store_scalar(object.__new__(ScalarFactor),
                         (F.value((1, 0)).det(), F.value((0, 1)).det()))


def _translation_increment(phase: AffinePhase, delta) -> Fraction:
    """Exact value of f(x + delta) - f(x); certifies x-independence."""
    shifted = phase.translate(delta)
    if shifted.nums != phase.nums or shifted.den != phase.den:
        raise AssertionError("x-terms failed to cancel")  # pragma: no cover
    inc = sum(map(operator.mul, phase.nums, delta))
    # consistency of the two computations mod 1
    if (shifted.num - phase.num - inc) % phase.den:
        raise AssertionError("translation increment disagrees with translate")
    return Fraction(inc, phase.den)


def mumford_c1(f: ScalarFactor) -> AltFormZ:
    """First Chern class of the line bundle of a scalar factor: the form
    (g1, g2) -> (f_{g2}(x+g1) - f_{g2}(x)) - (f_{g1}(x+g2) - f_{g1}(x)),
    independent of x (the cancellation is certified symbolically)."""
    basis = [tuple(int(i == k) for k in range(f.n)) for i in range(f.n)]
    vals = [f.value(e) for e in basis]
    mat = [[_translation_increment(vj, ei) - _translation_increment(vi, ej)
            for ej, vj in zip(basis, vals)] for ei, vi in zip(basis, vals)]
    if any(c.denominator != 1 for row in mat for c in row):
        raise ValueError("factor exponents do not define an integral class")
    return AltFormZ(mat)


def default_samples(q: int, a: int) -> int:
    return 64 * q * (abs(a) + 1)


def _samples(F: FactorOfAutomorphy, samples: int | None) -> int:
    (samples,) = _int_tuple((default_samples(F.q, F.a) if samples is None else samples,))
    least = 4 * (1 + abs(F.a) * F.q)
    if samples < least:
        raise ValueError(f"insufficient samples: need at least {least}, got {samples}")
    return samples


def _sampled_loop(F: FactorOfAutomorphy, samples: int):
    """The clutching loop s -> N_{(0,1)}(s, 0) at s = k/samples, k = 0..samples,
    as its permutation, the (samples + 1, q) array of its sampled nonzero
    entries (entry (perm[j], j) of sample k is vals[k, j]) and the sampled
    determinants.  N is monomial, so det = sign(perm) * prod(entries) is an
    identity on the samples, not the exact omega or twist."""
    sym = F.value((0, 1))
    s = np.arange(samples + 1)[:, None] / samples
    turns = s * [p.nums[0] / p.den for p in sym.phases] + [p.num / p.den for p in sym.phases]
    vals = np.exp(2j * np.pi * turns)
    return sym.perm, vals, (-1) ** _perm_parity(sym.perm) * vals.prod(axis=1)


def loop_matrices(F: FactorOfAutomorphy, samples: int) -> np.ndarray:
    """The sampled clutching loop as a stacked dense complex array: the
    entries of `_sampled_loop` scattered to their rows (numerical layer)."""
    perm, vals, _ = _sampled_loop(F, samples)
    mats = np.zeros((samples + 1, F.q, F.q), dtype=complex)
    mats[:, perm, range(F.q)] = vals
    return mats


def _unwrap_steps(values) -> np.ndarray:
    """Phase steps between consecutive samples; raises at or beyond the bound."""
    steps = np.angle(values[1:] / values[:-1])
    if steps.size and np.max(np.abs(steps)) >= UNWRAP_STEP_BOUND:
        raise UnwrapError("phase step at or beyond the unwrapping bound; "
                          "increase the sample count")
    return steps


def winding_number(values) -> int:
    """Discrete winding number of a closed loop of nonzero complex samples,
    by phase unwrapping; snaps to an exact integer or raises."""
    values = np.asarray(values, dtype=complex)
    if np.any(np.abs(values) == 0):
        raise ValueError("loop passes through zero")
    total_turns = float(np.sum(_unwrap_steps(values))) / (2 * math.pi)
    nearest = round(total_turns)
    if abs(total_turns - nearest) > SNAP_TOL_TURNS:
        raise SnapError(f"winding {total_turns} is not within tolerance of an integer")
    return int(nearest)


def clutching_twist(F: FactorOfAutomorphy, samples: int | None = None) -> int:
    """Winding number of det of the clutching loop; equals the twist."""
    return winding_number(_sampled_loop(F, _samples(F, samples))[2])


def clutching_omega(F: FactorOfAutomorphy, samples: int | None = None,
                    tol: float = SNAP_TOL_TURNS) -> RootOfUnity:
    """Endpoint defect of a special-unitary lift of the projective clutching
    loop, found by nearest-unitary continuation and snapped into mu_q.  The
    q-th root of 1 / det M_k picked at sample k depends on the previous pick
    only through their ratio, so every ratio is picked at once from
    w_k = conj(base_{k-1}) base_k <M_{k-1}, M_k>, base_k the principal root.
    Every M_k has the same support, so <M_{k-1}, M_k> runs over q entries."""
    q = F.q
    _, vals, dets = _sampled_loop(F, _samples(F, samples))
    _unwrap_steps(dets)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    base = np.exp(-1j * np.angle(dets) / q)
    w = base[1:] * base[:-1].conj() * np.vecdot(vals[:-1], vals[1:])
    inc = np.argmax((w[:, None] * roots).real, axis=1)
    mu_last = base[-1] * roots[int(inc.sum()) % q]
    zeta = base[0] * np.conj(mu_last) * np.vdot(vals[-1], vals[0]) / q
    turns = (math.atan2(zeta.imag, zeta.real) / (2 * math.pi)) % 1.0
    r = round(turns * q)  # nearest point r / q of (1/q)Z
    if abs(turns - r / q) > tol:
        raise SnapError(f"endpoint defect {turns} turns is not within {tol} of mu_{q}; "
                        "likely under-sampled")
    return RootOfUnity(Fraction(r % q, q))
