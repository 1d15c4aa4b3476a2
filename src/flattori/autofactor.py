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

UNWRAP_STEP_BOUND = math.pi / 2
SNAP_TOL_TURNS = 1e-6


class UnwrapError(RuntimeError):
    """Phase unwrapping saw a step at or beyond the soundness bound."""


class SnapError(RuntimeError):
    """A numerical value landed too far from every allowed exact value."""


def _rational(x) -> Fraction:
    """An exact rational coefficient; a float or other inexact value raises."""
    if not isinstance(x, (int, Fraction)):
        raise ValueError(f"phase coefficient {x!r} is not an exact rational")
    return Fraction(x)


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
        perm = tuple(map(int, perm))
        phases = tuple(phases)
        if not perm:
            raise ValueError("a matrix needs at least one row")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        if len(phases) != len(perm):
            raise ValueError("one phase per column required")
        if len({len(p.nums) for p in phases}) > 1:
            raise ValueError("mixed phase dimensions")
        object.__setattr__(self, "size", len(perm))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phases", phases)

    @property
    def dim(self) -> int:
        return self.phases[0].dim

    def __matmul__(self, other: "GenPermPhaseMatrix") -> "GenPermPhaseMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.size))
        phases = tuple(self.phases[other.perm[j]] + other.phases[j]
                       for j in range(self.size))
        return GenPermPhaseMatrix(perm, phases)

    def inverse(self) -> "GenPermPhaseMatrix":
        inv = [0] * self.size
        for j, p in enumerate(self.perm):
            inv[p] = j
        return GenPermPhaseMatrix(inv, tuple(-self.phases[inv[i]]
                                             for i in range(self.size)))

    def translate(self, gamma) -> "GenPermPhaseMatrix":
        return GenPermPhaseMatrix(self.perm,
                                  tuple(p.translate(gamma) for p in self.phases))

    def scalar_mul(self, phase: AffinePhase) -> "GenPermPhaseMatrix":
        return GenPermPhaseMatrix(self.perm, tuple(p + phase for p in self.phases))

    def det(self) -> AffinePhase:
        """Permutation sign (as a half-integer constant) times all phases."""
        total = _phase(2, (0,) * self.dim, _perm_parity(self.perm))
        for p in self.phases:
            total = total + p
        return total

    def __repr__(self):
        return f"GenPermPhaseMatrix(perm={self.perm}, phases={list(self.phases)})"


def rieffel_N(q: int, a: int, v: int = 1) -> GenPermPhaseMatrix:
    """N^v in closed form, for N the cyclic q x q matrix of x = (s, t) with
    ones on the superdiagonal and e(-a s) in the bottom-left corner.  Column
    j goes to row (j - v) mod q with e(-a s) once per pass of the walk j,
    j - 1, ..., j - v + 1 through column 0: (v + q - 1 - j) // q passes, a
    negative count (the passes of N^-1) when v < 0."""
    if q < 1:
        raise ValueError("q must be >= 1")
    passes = [(v + q - 1 - j) // q for j in range(q)]  # at most two values
    phase = {k: _phase(1, (-a * k, 0), 0) for k in set(passes)}
    return GenPermPhaseMatrix([(j - v) % q for j in range(q)], [phase[k] for k in passes])


@dataclass(frozen=True)
class FactorOfAutomorphy:
    """Lattice cocycle gamma = (u, v) -> N(s)^v on the 2-torus."""

    q: int
    a: int

    def __post_init__(self):
        # rieffel_N rejects q < 1; cocycle identity on generator pairs, checked symbolically
        for g1 in ((1, 0), (0, 1), (1, 1)):
            for g2 in ((1, 0), (0, 1), (-1, 1)):
                s = (g1[0] + g2[0], g1[1] + g2[1])
                if self.value(s) != self.value(g1).translate(g2) @ self.value(g2):
                    raise AssertionError("cocycle identity failed at construction")

    def value(self, gamma) -> GenPermPhaseMatrix:
        u, v = gamma
        return rieffel_N(self.q, self.a, v)

    def records(self, gammas=((1, 0), (0, 1))):
        """Dump format: one (gamma, perm, phases) record per lattice vector,
        each phase as the (s-coefficient, t-coefficient, constant) strings."""
        out = []
        for gamma in gammas:
            m = self.value(gamma)
            phases = [[str(p.linear[0]), str(p.linear[1]), str(p.const)]
                      for p in m.phases]
            out.append((tuple(gamma), list(m.perm), phases))
        return out


def factor_from(q: int, a: int) -> FactorOfAutomorphy:
    return FactorOfAutomorphy(q, a)


def check_cocycle(F, trials: int, seed: int = 0):
    """Verify N_{g+g'}(x) = N_g(x+g') N_{g'}(x) exactly on random pairs with
    entries bounded by 10.  Returns the list of violating pairs."""
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        g1 = (rng.randint(-10, 10), rng.randint(-10, 10))
        g2 = (rng.randint(-10, 10), rng.randint(-10, 10))
        s = (g1[0] + g2[0], g1[1] + g2[1])
        if F.value(s) != F.value(g1).translate(g2) @ F.value(g2):
            violations.append((g1, g2))
    return violations


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
        gamma = tuple(int(g) for g in gamma)
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
    n = f.n
    vals = [f.value(tuple(int(i == k) for k in range(n))) for i in range(n)]
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ei = tuple(int(k == i) for k in range(n))
            ej = tuple(int(k == j) for k in range(n))
            c = _translation_increment(vals[j], ei) - _translation_increment(vals[i], ej)
            if c.denominator != 1:
                raise ValueError("factor exponents do not define an integral class")
            mat[i][j] = int(c)
    return AltFormZ(mat)


def default_samples(q: int, a: int) -> int:
    return 64 * q * (abs(a) + 1)


def _samples(F: FactorOfAutomorphy, samples: int | None) -> int:
    if samples is None:
        return default_samples(F.q, F.a)
    least = 4 * (1 + abs(F.a) * F.q)
    if samples < least:
        raise ValueError(f"insufficient samples: need at least {least}, got {samples}")
    return samples


def loop_matrices(F: FactorOfAutomorphy, samples: int) -> np.ndarray:
    """The clutching loop s -> N_{(0,1)}(s, 0) at s = k/samples, k = 0..samples,
    as a stacked complex array (numerical layer)."""
    sym = F.value((0, 1))
    q = sym.size
    s = np.arange(samples + 1) / samples
    mats = np.zeros((samples + 1, q, q), dtype=complex)
    for j, ph in enumerate(sym.phases):
        turns = ph.nums[0] / ph.den * s + ph.num / ph.den
        mats[:, sym.perm[j], j] = np.exp(2j * np.pi * turns)
    return mats


def winding_number(values) -> int:
    """Discrete winding number of a closed loop of nonzero complex samples,
    by phase unwrapping; snaps to an exact integer or raises."""
    values = np.asarray(values, dtype=complex)
    if np.any(np.abs(values) == 0):
        raise ValueError("loop passes through zero")
    steps = np.angle(values[1:] / values[:-1])
    if steps.size and np.max(np.abs(steps)) >= UNWRAP_STEP_BOUND:
        raise UnwrapError("phase step at or beyond the unwrapping bound; "
                          "increase the sample count")
    total_turns = float(np.sum(steps)) / (2 * math.pi)
    nearest = round(total_turns)
    if abs(total_turns - nearest) > SNAP_TOL_TURNS:
        raise SnapError(f"winding {total_turns} is not within tolerance of an integer")
    return int(nearest)


def clutching_twist(F: FactorOfAutomorphy, samples: int | None = None) -> int:
    """Winding number of det of the clutching loop; equals the twist."""
    samples = _samples(F, samples)
    mats = loop_matrices(F, samples)
    dets = np.linalg.det(mats)
    return winding_number(dets)


def clutching_omega(F: FactorOfAutomorphy, samples: int | None = None,
                    tol: float = SNAP_TOL_TURNS) -> RootOfUnity:
    """Endpoint defect of a special-unitary lift of the projective clutching
    loop, found by nearest-unitary continuation and snapped into mu_q.  The
    q-th root of 1 / det M_k picked at sample k depends on the previous pick
    only through their ratio, so every ratio is picked at once from
    w_k = conj(base_{k-1}) base_k <M_{k-1}, M_k>, base_k the principal root."""
    samples = _samples(F, samples)
    q = F.q
    mats = loop_matrices(F, samples)
    dets = np.linalg.det(mats)
    if np.max(np.abs(np.angle(dets[1:] / dets[:-1]))) >= UNWRAP_STEP_BOUND:
        raise UnwrapError("phase step at or beyond the unwrapping bound; "
                          "increase the sample count")
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    base = np.exp(-1j * np.angle(dets) / q)
    flat = mats.reshape(samples + 1, q * q)
    w = base[1:] * base[:-1].conj() * np.vecdot(flat[:-1], flat[1:])
    inc = np.argmax((w[:, None] * roots).real, axis=1)
    mu_last = base[-1] * roots[int(inc.sum()) % q]
    zeta = base[0] * np.conj(mu_last) * np.vdot(flat[-1], flat[0]) / q
    turns = (math.atan2(zeta.imag, zeta.real) / (2 * math.pi)) % 1.0
    r = round(turns * q)  # nearest point r / q of (1/q)Z
    if abs(turns - r / q) > tol:
        raise SnapError(f"endpoint defect {turns} turns is not within {tol} of mu_{q}; "
                        "likely under-sampled")
    return RootOfUnity(Fraction(r % q, q))
