"""Exact factor-of-automorphy engine over generalized permutation-phase
matrices.

Matrix entries are phases e(l.x + c) with rational l and c, compared mod 1;
products and inverses stay inside the class.  A phase is integer numerators
over one common denominator in lowest terms, so equal phases have equal
fields.  N^v of the rank-q factor is kept only as its integer word, in
closed form: with (t, r) = divmod(v, q), the rotation (q - r, ..., q - 1, 0,
..., q - r - 1) and the s-exponents l_j, r copies of -a(t + 1) then q - r
of -a t.  Everything about the factor reads that word.  The cocycle
identity composes permutations and adds exponents (an integer translate adds
l_j u = 0 mod 1), one verdict per distinct (v1, v2) as N_g depends on
v = g[1] only; `check_cocycle` draws each entry as randint(-10, 10) does:
getrandbits(5), redrawn while >= 21, minus 10.  det N^v is sign(perm)
e(s sum_j l_j): the clutching loop N_{(0,1)}(s) winds sum_j l_j times
(clutching_twist), its special-unitary lift has endpoint defect
e(sum_j l_j / q) (clutching_omega).  A scalar factor's l_j[i] - l_i[j]
checks its generators and is its Chern form.  No floating point.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product, repeat
from math import gcd, lcm

from .cohomology import AltFormZ, RootOfUnity
from .exact_linalg import (_instance, _int, _int_matrix, _ints, _positive, _rational,
                           _row_tuples, _tuple)

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
        coeffs = [_rational(c) for c in _tuple(linear)]
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
    """(size - number of cycles) mod 2, one walk over each cycle."""
    seen, cycles = bytearray(len(perm)), 0
    for start in range(len(perm)):
        cycles += not seen[start]
        j = start
        while not seen[j]:
            seen[j], j = 1, perm[j]
    return (len(perm) - cycles) % 2


@dataclass(frozen=True, slots=True)
class GenPermPhaseMatrix:
    """q x q matrix with exactly one nonzero phase entry per row and column:
    entry (perm[j], j) carries phases[j].  Closed under product and
    inverse; all entries have modulus one, so these are unitary."""

    size: int
    perm: tuple
    phases: tuple

    def __init__(self, perm, phases):
        perm, phases = _ints(perm), _tuple(phases)
        if not perm:
            raise ValueError("a matrix needs at least one row")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        if len(phases) != len(perm):
            raise ValueError("one phase per column required")
        if not all(isinstance(p, AffinePhase) for p in phases):
            raise ValueError("every phase must be an AffinePhase")
        if len({len(p.nums) for p in phases}) > 1:
            raise ValueError("mixed phase dimensions")
        _matrix(perm, phases, self)

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


def _rieffel_exponents(q: int, a: int, v: int) -> tuple:
    """N^v as integers (q >= 1, a, v checked by the caller): column j goes to
    row perm[j] = (j - v) mod q with phase e(ls[j] s).  N is the cyclic q x q
    matrix of x = (s, t), ones on the superdiagonal, e(-a s) bottom-left, so
    ls[j] = -a (t + 1) for j < r and -a t for j >= r, (t, r) = divmod(v, q)."""
    t, r = divmod(v, q)
    return (*range(q - r, q), *range(q - r)), (-a * (t + 1),) * r + (-a * t,) * (q - r)


@dataclass(frozen=True)
class FactorOfAutomorphy:
    """Lattice cocycle gamma = (u, v) -> N(s)^v on the 2-torus."""

    q: int
    a: int

    def __post_init__(self):
        object.__setattr__(self, "q", _positive(self.q, "q"))
        object.__setattr__(self, "a", _int(self.a))
        if _violations(self, product(((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (-1, 1)))):
            raise AssertionError("cocycle identity failed at construction")

    def records(self):
        """Dump format: one (gamma, perm, phases) record for each of the
        generators (1, 0) and (0, 1), each phase e(l_j s) as the
        (s-coefficient, t-coefficient, constant) strings."""
        words = [_rieffel_exponents(self.q, self.a, v) for v in (0, 1)]
        return [(g, list(perm), [[str(l), "0", "0"] for l in ls])
                for g, (perm, ls) in zip(((1, 0), (0, 1)), words)]


def factor_from(q: int, a: int) -> FactorOfAutomorphy:
    return FactorOfAutomorphy(q, a)


def _violations(F, pairs) -> list:
    """The pairs (g1, g2), in order and with repeats, where N_{g1+g2}(x) = N_{g1}(x+g2)
    N_{g2}(x) fails: one verdict per (v1, v2) on words built once per v (module doc)."""
    words, verdicts, bad = {}, {}, []
    for g1, g2 in pairs:
        v1, v2 = key = g1[1], g2[1]
        if key not in verdicts:
            for v in {v1, v2, v1 + v2} - words.keys():
                words[v] = _rieffel_exponents(F.q, F.a, v)
            (p1, l1), (p2, l2) = words[v1], words[v2]
            verdicts[key] = words[v1 + v2] == (
                tuple([p1[k] for k in p2]), tuple([l1[k] + l for k, l in zip(p2, l2)]))
        if not verdicts[key]:
            bad.append((g1, g2))
    return bad


def check_cocycle(F, trials: int, seed: int = 0):
    """The violating pairs among `trials` >= 1 streamed pairs ((u1, v1), (u2, v2)) of
    randint(-10, 10) draws from Random(seed): getrandbits(5) until < 21, minus 10."""
    F, count = _instance(F, FactorOfAutomorphy), _positive(trials, "trials")
    draws = (r - 10 for r in map(random.Random(_int(seed)).getrandbits, repeat(5)) if r < 21)
    return _violations(F, islice(zip(zip(draws, draws), zip(draws, draws)), count))


@dataclass(frozen=True, slots=True)
class ScalarFactor:
    """Abelian (1 x 1) factor of automorphy with affine exponents.

    The family gamma -> e(f_gamma) is generated by the exponents of the
    lattice generators: phases[i] is f_{e_i}, with x-linear part xcoeff
    row i and constant consts[i] (mod 1; sign characters appear as halves).
    Values on all of Z^n follow from the cocycle recursion
    f_{gamma+e}(x) = f_gamma(x+e) + f_e(x), so the generators fix it.
    c1 is its Chern form, the coherence matrix of the generators.
    """

    n: int
    phases: tuple
    c1: AltFormZ

    def __init__(self, xcoeff, consts):
        rows, consts = _row_tuples(xcoeff), _tuple(consts)
        n = len(rows)
        if not n or any(len(row) != n for row in rows) or len(consts) != n:
            raise ValueError("generator data must be square and non-empty")
        _store_scalar(self, tuple(AffinePhase(row, c) for row, c in zip(rows, consts)))


def _store_scalar(f: ScalarFactor, phases: tuple) -> ScalarFactor:
    """Set the generator phases of f and its Chern form, the matrix
    c(e_i, e_j) = l_j[i] - l_i[j] of their x-coefficients l_i.  The family
    exists iff every entry is an integer, so a fractional entry raises."""
    mat = [[divmod(pj.nums[i] * pi.den - pi.nums[j] * pj.den, pi.den * pj.den)
            for j, pj in enumerate(phases)] for i, pi in enumerate(phases)]
    if any(r for row in mat for _, r in row):
        raise ValueError("generator exponents are not coherent")
    object.__setattr__(f, "n", len(phases))
    object.__setattr__(f, "phases", phases)
    object.__setattr__(f, "c1", AltFormZ(_int_matrix([[c for c, _ in row] for row in mat])))
    return f


def det_cocycle(F: FactorOfAutomorphy) -> ScalarFactor:
    """Determinant of a factor of automorphy, as a scalar factor.

    det N^v = sign(perm) e(s sum_j l_j) on the word of N^v, read at v = 0
    and 1; the sign rides along as the half-integer constant parity / 2.
    For the rank-q family this is gamma = (u,v) -> (-1)^{v(q-1)} e(-a v s)."""
    F = _instance(F, FactorOfAutomorphy)
    words = [_rieffel_exponents(F.q, F.a, v) for v in (0, 1)]
    return _store_scalar(object.__new__(ScalarFactor), tuple(
        _phase(2, (2 * sum(ls), 0), _perm_parity(perm)) for perm, ls in words))


def mumford_c1(f: ScalarFactor) -> AltFormZ:
    """First Chern class of the line bundle of a scalar factor: the form
    (g1, g2) -> (f_{g2}(x+g1) - f_{g2}(x)) - (f_{g1}(x+g2) - f_{g1}(x)),
    bilinear and, since translating f_{e_j} by e_i adds l_j[i] for every x,
    the coherence matrix l_j[i] - l_i[j] on the generators, which the
    factor stores as c1."""
    return _instance(f, ScalarFactor).c1


def clutching_twist(F: FactorOfAutomorphy) -> int:
    """Winding number of det of the clutching loop s -> N_{(0,1)}(s, 0),
    whose entry in column j is e(l_j s); equals the twist.  det N(s) =
    sign(perm) e(s sum_j l_j) winds exactly sum_j l_j times as s runs over
    [0, 1].  The closed form needs every l_j an integer and the loop closed,
    N(s + 1) = N(s); both hold by type, since the word stores integer
    exponents and e(l_j) = 1."""
    F = _instance(F, FactorOfAutomorphy)
    return sum(_rieffel_exponents(F.q, F.a, 1)[1])


def clutching_omega(F: FactorOfAutomorphy) -> RootOfUnity:
    """Endpoint defect of a special-unitary lift of the projective clutching
    loop.  The lift M(s) = mu(s) N(s) with mu^q det N = 1, continued from
    s = 0, has mu(s) = mu(0) e(-s sum_j l_j / q), so M(0) = e(sum_j l_j / q) M(1)
    and the defect is that root in mu_q."""
    return RootOfUnity(Fraction(clutching_twist(F), F.q))
