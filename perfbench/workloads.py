"""Seeded request streams for the four workloads, with their answer keys.

A workload is an endless sequence of cycles; cycle `i` of seed `s` is drawn
from its own `random.Random` stream, so the same (seed, cycle) always gives
the same requests.  Each cycle has a fixed composition (the strata named in
the generator), which keeps the mix, and hence the run-to-run spread, the
same from run to run; only the drawn inputs change with the seed.

A request is a timed call into flattori plus an answer check from `keys`.
Library functions are always looked up through their module at call time,
so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd, prod

from flattori import autofactor, cli, nctorus, projrep
from flattori.exact_linalg import SkewRatForm

import keys


class Request:
    """`prepare()` (untimed) builds late inputs, `call()` is the timed call,
    `check(result)` returns None or the reason the answer is wrong."""

    __slots__ = ("kind", "data", "call", "check", "prepare")

    def __init__(self, kind, data, call, check, prepare=None):
        self.kind = kind
        self.data = data
        self.call = call
        self.check = check
        self.prepare = prepare


# -- input helpers -------------------------------------------------------

def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _unimodular(n: int, rng: random.Random, word: int):
    """Product of `word` elementary row operations (+-1), after an optional
    row sign flip, so det = +-1 by construction."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        t[0] = [-x for x in t[0]]
    for _ in range(word):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    return t


def _int_skew(n: int, rng: random.Random, bound: int):
    z = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z[i][j] = rng.randint(-bound, bound)
            z[j][i] = -z[i][j]
    return z


def _transport(theta, rng: random.Random, word: int):
    """T theta T^t + Z for a seeded unimodular T and integer skew shift Z."""
    n = len(theta)
    moved = keys.congruence(_unimodular(n, rng, word), theta)
    z = _int_skew(n, rng, 2)
    return [[moved[i][j] + z[i][j] for j in range(n)] for i in range(n)]


def _rand_skew(n: int, rng: random.Random, dens, whole: int = 2):
    """Skew form with entries k/d, d drawn from `dens`, in [-whole, whole]
    (in [0, 1) when whole = 0)."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rng.choice(dens)
            k = rng.randrange(-whole * d, whole * d + 1) if whole else rng.randrange(d)
            m[i][j] = Fraction(k, d)
            m[j][i] = -m[i][j]
    return m


def _chain(n_blocks: int, top: int, rng: random.Random):
    """Block denominators d1 | d2 | ... , each >= 2, last <= top."""
    d = [rng.randint(2, top // 2 ** (n_blocks - 1))]
    while len(d) < n_blocks:
        d.append(d[-1] * rng.randint(1, top // d[-1] // 2 ** (n_blocks - 1 - len(d))))
    return d


def _blocks(dens, rng: random.Random):
    out = []
    for d in dens:
        p = rng.randrange(1, d)
        while gcd(p, d) != 1:
            p = rng.randrange(1, d)
        out.append(Fraction(p, d))
    return out


def _frozen(m):
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def _skew(m) -> SkewRatForm:
    return SkewRatForm([[Fraction(x) for x in row] for row in m])


def _matrix_json(m) -> str:
    return json.dumps({"n": len(m), "m": len(m[0]),
                       "entries": [[str(Fraction(x)) for x in row] for row in m]})


def _parse_matrix(obj):
    return [[Fraction(x) for x in row] for row in obj["entries"]]


# -- iso_walk ------------------------------------------------------------

ISO_POSITIVE_ELLS = (2, 3, 4, 5, 6, 8, 10, 12)
# blocks of 204 short requests per orbit-closing negative
ISO_BLOCKS = 6


def _iso_request(kind, theta, theta2, expect_iso: bool, why: str = ""):
    p1 = nctorus.NCTorusParams(len(theta), _skew(theta))
    p2 = nctorus.NCTorusParams(len(theta2), _skew(theta2))

    def check(d):
        if d.status is nctorus.IsoStatus.UNDECIDED:
            return "undecided"
        if d.is_iso != expect_iso:
            return f"expected iso={expect_iso} ({why}), got {d.status.value}"
        if expect_iso:
            return keys.certificate_error(theta, theta2, d.T.entries, d.shift.entries)
        return None

    return Request(kind, (_frozen(theta), _frozen(theta2)),
                   lambda: nctorus.iso_decide(p1, p2), check)


def _closer(rng: random.Random):
    """n = 4 forms, nondegenerate mod the prime 5, Pfaffians differing
    beyond sign: the walk has to close a whole orbit to answer no."""
    ell = 5
    while True:
        a, b = _int_skew(4, rng, 2), _int_skew(4, rng, 2)
        pa, pb = keys.pfaffian4(a) % ell, keys.pfaffian4(b) % ell
        if pa and pb and pb not in (pa, (-pa) % ell):
            break
    theta = _transport([[Fraction(x, ell) for x in r] for r in a], rng, 3)
    theta2 = _transport([[Fraction(x, ell) for x in r] for r in b], rng, 3)
    # the key reads the final forms, not the construction
    _, sa = keys.scaled_int(theta)
    _, sb = keys.scaled_int(theta2)
    if keys.pfaffian_rule_iso(sa, sb, ell):
        raise AssertionError("closer pair is congruent by the Pfaffian rule")
    return _iso_request("closer", theta, theta2, False, "Pfaffian rule")


def _early_negative(n: int, rng: random.Random, chain_differs: bool):
    """Pairs rejected before the walk: q_theta differs, or (n >= 4) the
    block denominator chains differ at equal q_theta."""
    if chain_differs:
        a = rng.choice((2, 3))
        b = a * rng.choice((1, 2))
        dens1, dens2, why = [a, b], [a * b], "invariant chain differs"
    else:
        d1 = rng.randint(2, 12)
        d2 = rng.choice([d for d in range(2, 13) if d != d1])
        dens1, dens2, why = [d1], [d2], "q_theta differs"
    theta = _transport(keys.block_form(n, _blocks(dens1, rng)), rng, rng.randint(1, 4))
    theta2 = _transport(keys.block_form(n, _blocks(dens2, rng)), rng, rng.randint(1, 4))
    return _iso_request("reject", theta, theta2, False, why)


def iso_walk_cycle(rng: random.Random, _index: int):
    """Positives theta' = T theta T^t + Z (n 3-4 at ell <= 12, n 5 at
    ell <= 4) and early rejections, ISO_BLOCKS blocks of them, with one
    orbit-closing negative in the middle.  Word lengths of T and rejection
    kinds are spread evenly over a block.  Together the blocks take longer
    than the closer, and they run on both sides of it, so the short
    requests that set p50 and p90 are sampled over the whole cycle."""
    reqs = []
    for rep in range(6 * ISO_BLOCKS):
        for n in (3, 4):
            for ell in ISO_POSITIVE_ELLS:
                theta = _rand_skew(n, rng, (ell,))
                reqs.append(_iso_request(f"iso.n{n}", theta,
                                         _transport(theta, rng, 1 + (rep + ell) % 4), True))
        for ell in (2, 3, 4):
            theta = _rand_skew(5, rng, (ell,))
            reqs.append(_iso_request("iso.n5", theta,
                                     _transport(theta, rng, 1 + (rep + ell) % 3), True))
        for n in (3, 4, 5):
            for k in range(5):
                reqs.append(_early_negative(n, rng, n >= 4 and (rep + k) % 2 == 0))
    rng.shuffle(reqs)
    half = len(reqs) // 2
    return reqs[:half] + [_closer(rng)] + reqs[half:]


def iso_walk_warmup(rng: random.Random):
    thetas = [_rand_skew(n, rng, (ell,)) for n, ell in ((3, 4), (4, 6), (5, 2))]
    return ([_iso_request("iso.warm", t, _transport(t, rng, 2), True) for t in thetas]
            + [_early_negative(4, rng, True)])


# -- invariants (CLI) ----------------------------------------------------

def _cli_request(kind, argv, expect_code, check_record):
    argv = ["--format", "records"] + argv

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()

    def check(result):
        code, out = result
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}"
        return check_record(json.loads(out))

    return Request(kind, tuple(argv), call, check)


def _cli_q_theta(theta, q):
    return _cli_request("cli.q-theta", ["q-theta", "--theta", _matrix_json(theta)], 0,
                        lambda r: None if r == {"q_theta": q} else f"q_theta {r}, expected {q}")


def _cli_normal_form(theta, q):
    def check(r):
        return keys.normal_form_error(theta, _parse_matrix(r["T"]),
                                      [Fraction(b) for b in r["blocks"]], r["free_rank"], q)
    return _cli_request("cli.normal-form", ["normal-form", "--theta", _matrix_json(theta)],
                        0, check)


def _cli_iso(theta, theta2, expect_iso: bool):
    def check(r):
        if r.get("isomorphic") is not expect_iso:
            return f"isomorphic={r.get('isomorphic')}, expected {expect_iso}"
        if expect_iso:
            return keys.certificate_error(theta, theta2, _parse_matrix(r["T"]),
                                          _parse_matrix(r["shift"]))
        return None
    argv = ["iso", "--theta", _matrix_json(theta), "--theta-prime", _matrix_json(theta2)]
    return _cli_request("cli.iso", argv, 0 if expect_iso else 1, check)


def _cli_classify(kind, n, q, form):
    expect = {"kind": kind, "n": n, "q": q,
              "form": {"n": n, "m": n, "entries": [[str(x % q if kind == "matrix" else x)
                                                    for x in row] for row in form]}}
    if kind == "matrix":
        expect["form"]["modulus"] = q
    argv = ["classify", "--kind", kind, "--n", str(n), "--q", str(q),
            "--form", _matrix_json(form)]
    return _cli_request(f"cli.classify-{kind}", argv, 0,
                        lambda r: None if r == expect else f"class record {r}")


def _cli_table(q):
    rows = []
    for a in range(q):
        w = Fraction(-a, q) % 1
        rows.append({"a": a, "c1_pairing": -a, "twist": -a, "beta_pairing": (-a) % q,
                     "omega": f"{w.numerator}/{w.denominator}"})
    expect = {"q": q, "rows": rows, "distinct_matrix_classes": q, "total_rows": q}
    return _cli_request("cli.table", ["table", "--q", str(q)], 0,
                        lambda r: None if r == expect else f"table record {r}")


def invariants_cycle(rng: random.Random, _index: int):
    """For each n in 2..8: q-theta and normal-form of T B T^t + Z with block
    denominators <= 30, an integer-shift iso pair, an n = 2 pair or an early
    rejection, both classify kinds, and a table sweep."""
    reqs = []
    for n in range(2, 9):
        k = rng.randint(1, n // 2)
        dens = _chain(k, 30, rng)
        q = prod(dens)
        theta = _transport(keys.block_form(n, _blocks(dens, rng)), rng, rng.randint(2, n + 2))
        reqs.append(_cli_q_theta(theta, q))
        reqs.append(_cli_normal_form(theta, q))
        reqs.append(_cli_iso(theta, [[theta[i][j] + z for j, z in enumerate(row)]
                                     for i, row in enumerate(_int_skew(n, rng, 3))], True))
        if n == 2 or rng.random() < 0.3:
            d = rng.randint(2, 30)
            x = Fraction(rng.randrange(1, d), d)
            if rng.random() < 0.5:
                y, same = rng.choice((1, -1)) * x + rng.randint(-2, 2), True
            else:
                y = Fraction(rng.randrange(1, d), d)
                same = (y - x).denominator == 1 or (y + x).denominator == 1
            reqs.append(_cli_iso([[0, x], [-x, 0]], [[0, y], [-y, 0]], same))
        else:
            other = _chain(1, 30, rng)
            while prod(other) == q:
                other = _chain(1, 30, rng)
            theta2 = _transport(keys.block_form(n, _blocks(other, rng)), rng, 2)
            reqs.append(_cli_iso(theta, theta2, False))
        form = _int_skew(n, rng, 9)
        reqs.append(_cli_classify("vector", n, rng.randint(1, 30), form))
        reqs.append(_cli_classify("matrix", n, rng.randint(1, 30), form))
        reqs.append(_cli_table(rng.randint(1, 12)))
    rng.shuffle(reqs)
    return reqs


def invariants_warmup(rng: random.Random):
    return invariants_cycle(rng, 0)[:10]


# -- reps ----------------------------------------------------------------

def _chains_of(q: int):
    """All block denominator chains d1 | d2 | d3 (1 to 3 blocks, each >= 2)
    with product q."""
    out = [[q]]
    for a in range(2, q):
        if q % a == 0 and (q // a) % a == 0:
            out.append([a, q // a])
            for b in range(a, q // a):
                if (q // a) % b == 0 and b % a == 0 and (q // a // b) % b == 0:
                    out.append([a, b, q // a // b])
    return out


def _rep_requests(blocks, free: int, perm):
    n = 2 * len(blocks) + free
    q = prod(b.denominator for b in blocks)
    theta = SkewRatForm(keys.block_form(n, blocks))
    data = (tuple(blocks), free, tuple(perm))
    state = {}

    def rep_call():
        state["rep"] = rep = projrep.heisenberg_rep(theta)
        return rep

    def rep_check(rep):
        return None if rep.dim == q else f"rep dim {rep.dim}, expected q_theta {q}"

    def conjugate():
        rep = state["rep"]
        p = autofactor.GenPermPhaseMatrix(perm, [autofactor.AffinePhase((), 0)] * q)
        pinv = p.inverse()
        state["rep2"] = projrep.ProjectiveRep([p @ g @ pinv for g in rep.gens], rep.cocycle)

    def intertwiner_check(x):
        if x is None:
            return "no intertwiner for a conjugated copy"
        gens = [(g.perm, [ph.const for ph in g.phases]) for g in state["rep"].gens]
        gens2 = [(g.perm, [ph.const for ph in g.phases]) for g in state["rep2"].gens]
        return keys.intertwiner_error([[e.coeffs for e in row] for row in x],
                                      x[0][0].L, gens, gens2)

    return [
        Request("rep.heisenberg", data, rep_call, rep_check),
        Request("rep.commutant", data, lambda: projrep.commutant_dim(state["rep"]),
                lambda c: None if c == 1 else f"commutant dimension {c}, expected 1"),
        Request("rep.intertwiner", data,
                lambda: projrep.intertwiner(state["rep"], state["rep2"]),
                intertwiner_check, prepare=conjugate),
    ]


# q_theta of the forms in a cycle: every q in 2..24 once, and 2..12 four more
# times, so that the median request, among the commutants and intertwiners
# of q 5..6, has neighbours of similar cost
REPS_QS = tuple(range(2, 25)) + tuple(range(2, 13)) * 4


def reps_cycle(rng: random.Random, _index: int, qs=REPS_QS):
    """One block normal form for each entry of `qs`, three requests each.

    The block structure of each form (denominator chain and free rank) sets
    most of the cost, so it rotates with the occurrence of q in the cycle
    and is the same for every cycle and seed; the numerators, the
    conjugating permutation and the request order are seeded."""
    qs = list(qs)
    rng.shuffle(qs)
    seen = {}
    reqs = []
    for q in qs:
        k = seen[q] = seen.get(q, -1) + 1
        chains = _chains_of(q)
        turn, pick = divmod(k + q, len(chains))
        blocks = _blocks(chains[pick], rng)
        perm = list(range(q))
        rng.shuffle(perm)
        reqs += _rep_requests(blocks, turn % 2, perm)
    return reqs


def reps_warmup(rng: random.Random):
    return reps_cycle(rng, 0, qs=range(2, 7))


# -- factors -------------------------------------------------------------

COCYCLE_TRIALS = 20
# Denominators of the bundle_of inputs.  At n = 4 they divide 6: with 4 or 5
# among them, GenPermPhaseMatrix.__pow__ (|v| products for a certificate
# entry v) takes seconds to minutes on some draws, past any per-request
# limit a run of this benchmark can hold (see README.md).
BUNDLE_DENS = {2: range(1, 7), 3: range(1, 7), 4: (1, 2, 3, 6)}


def _factor_requests(q: int, a: int, trial_seed: int):
    data = (q, a, trial_seed)
    omega = Fraction(-a, q) % 1
    return [
        Request("fac.cocycle", data,
                lambda: autofactor.check_cocycle(autofactor.factor_from(q, a),
                                                 COCYCLE_TRIALS, seed=trial_seed),
                lambda v: None if v == [] else f"{len(v)} cocycle violations"),
        Request("fac.twist", data,
                lambda: autofactor.clutching_twist(autofactor.factor_from(q, a)),
                lambda t: None if t == -a else f"twist {t}, expected {-a}"),
        Request("fac.omega", data,
                lambda: autofactor.clutching_omega(autofactor.factor_from(q, a)),
                lambda w: None if w.phase == omega else f"omega {w}, expected {omega}"),
        Request("fac.mumford", data,
                lambda: autofactor.mumford_c1(autofactor.det_cocycle(
                    autofactor.factor_from(q, a))),
                lambda c: None if c.mat[0][1] == -a else f"Chern entry {c.mat[0][1]}"),
    ]


def _bundle_request(theta):
    q = keys.q_theta(theta)
    n = len(theta)
    form = _skew(theta)

    def check(result):
        vector, matrix, rep = result
        if (vector.rank, matrix.size, rep.dim) != (q, q, q):
            return f"ranks {(vector.rank, matrix.size, rep.dim)}, expected q_theta {q}"
        if [list(r) for r in vector.c1.mat.entries] != [[q * x for x in row]
                                                       for row in theta]:
            return "c1 is not q_theta * theta"
        return None

    return Request(f"fac.bundle_of.n{n}", _frozen(theta),
                   lambda: nctorus.bundle_of(form), check)


def factors_cycle(rng: random.Random, _index: int, qs=range(1, 9)):
    """For each q in 1..8 with a seeded 1 <= |a| <= 8: cocycle check, clutching
    twist and omega, Mumford c1 of the determinant; then bundle_of for one
    seeded theta each at n = 2, 3, 4, entries in [0, 1) with denominators
    BUNDLE_DENS[n]."""
    reqs = []
    # every cycle uses each |a| in 1..8 once, so cycles cost about the same
    mags = list(range(1, 9))
    rng.shuffle(mags)
    for q, m in zip(qs, mags):
        reqs += _factor_requests(q, m * rng.choice((1, -1)), rng.randrange(2 ** 31))
    for n in (2, 3, 4):
        reqs.append(_bundle_request(_rand_skew(n, rng, BUNDLE_DENS[n], whole=0)))
    rng.shuffle(reqs)
    return reqs


def factors_warmup(rng: random.Random):
    return factors_cycle(rng, 0, qs=range(1, 4))[:8]


# -- registry ------------------------------------------------------------

class Workload:
    def __init__(self, name, cycle, warmup, limit_s):
        self.name = name
        self._cycle = cycle
        self._warmup = warmup
        self.limit_s = limit_s

    def cycle(self, seed: int, index: int):
        return self._cycle(_rng(self.name, seed, index), index)

    def warmup(self, seed: int):
        return self._warmup(_rng(self.name, seed, "warmup"))


WORKLOADS = {w.name: w for w in (
    # per-request limits: several times the slowest healthy request
    Workload("iso_walk", iso_walk_cycle, iso_walk_warmup, 60.0),
    Workload("invariants", invariants_cycle, invariants_warmup, 5.0),
    Workload("reps", reps_cycle, reps_warmup, 10.0),
    Workload("factors", factors_cycle, factors_warmup, 5.0),
)}
