"""Representations and their Hom answers equal the recorded ones.

The digest was recorded with the earlier `ProjectiveRep`, which stored its
generators as Fraction-phase matrices next to their exponents and its
cocycle as a bilinear form B / ell next to the bicharacter: the same
dimensions, phase orders, exponents, records, generator matrices,
commutants, conjugated copies and intertwiners come out, and `flattori rep`
prints the same bytes in both formats."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import oracles

from flattori.autofactor import AffinePhase, GenPermPhaseMatrix
from flattori.cli import run
from flattori.exact_linalg import SkewRatForm
from flattori.nctorus import clock_shift_rep, normal_form
from flattori.projrep import ProjectiveRep, commutant_dim, heisenberg_rep, intertwiner


def recorded_reps(rng):
    """400 random forms (n 1..5, denominators <= 6) through their normal form
    and 100 block normal forms with q_theta <= 24, some with free directions."""
    for trial in range(400):
        n = 1 + trial % 5
        theta = oracles.random_skew_rat(rng, n, max_den=1 + trial % 6, max_num=6)
        yield clock_shift_rep(theta, normal_form(theta))
    for _ in range(100):
        pairs, size = [], 1
        for _ in range(rng.randint(1, 3)):
            q = rng.choice([d for d in range(2, 13) if not pairs or d % pairs[-1][0] == 0]
                           or [pairs[-1][0]])
            if size * q > 24:
                break
            p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
            pairs.append((q, p))
            size *= q
        yield heisenberg_rep(oracles.block_normal_form(pairs, 2 * len(pairs) + rng.randrange(3)))


# the Hom systems have d^2 unknowns: the few larger reps are hashed without them
HOM_DIM = 120


def recorded_digest():
    """(sha256 of every representation, a conjugated copy and, up to
    dimension HOM_DIM, its Hom answers; the number of values hashed)."""
    rng = random.Random(2801)
    digest, count = hashlib.sha256(), 0
    for rep in recorded_reps(rng):
        d = rep.dim
        perm = list(range(d))
        rng.shuffle(perm)
        P = GenPermPhaseMatrix(perm, [AffinePhase((), Fraction(rng.randrange(2), 2))
                                      for _ in range(d)])
        conj = ProjectiveRep([P @ g @ P.inverse() for g in rep.gens], rep.cocycle)
        values = [rep.n, d, rep.L, rep.exponents, rep.records(),
                  [(g.perm, [ph.const for ph in g.phases]) for g in rep.gens],
                  conj.L, conj.exponents]
        if d <= HOM_DIM:
            X = intertwiner(rep, conj)
            values += [commutant_dim(rep), [(i, j, x.coeffs) for i, row in enumerate(X)
                                            for j, x in enumerate(row) if any(x.coeffs)]]
        count += len(values)
        digest.update(repr(values).encode())
    return digest.hexdigest(), count


RECORDED_DIGEST = "1bb7720a52088b6978e9d76342c18b67059ac147d4f02a1c9f2d843fb37c0d07"
RECORDED_COUNT = 4976


def test_reps_and_hom_answers_match_the_recorded_ones():
    assert recorded_digest() == (RECORDED_DIGEST, RECORDED_COUNT)


# (n, block pairs, unimodular sample seed): forms moved off their normal form
CLI_FORMS = [(2, [(5, 2)], 1), (3, [(4, 3)], 2), (4, [(2, 1), (6, 5)], 3),
             (5, [(3, 1), (3, 2)], 4), (6, [(2, 1), (2, 1), (4, 3)], 5)]


def cli_outputs():
    """`flattori rep` stdout for each of CLI_FORMS, in both formats."""
    outputs = []
    for n, pairs, seed in CLI_FORMS:
        theta = oracles.block_normal_form(pairs, n).congruence(
            oracles.unimodular_sample(n, seed=seed, word_length=6))
        text = json.dumps({"n": n, "m": n, "entries": [
            [str(Fraction(x, theta.ell)) for x in row] for row in theta.S.entries]})
        for fmt in ("human", "records"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run(["--format", fmt, "rep", "--theta", text]) == 0
            outputs.append(out.getvalue())
    return outputs


RECORDED_CLI = "14147e878337763c98034a93e8de1726e945f1345e47707a442c24dc22cf452e"


def test_rep_cli_prints_the_recorded_bytes():
    assert hashlib.sha256("".join(cli_outputs()).encode()).hexdigest() == RECORDED_CLI


def test_a_rep_rebuilt_from_its_generators_keeps_its_words():
    # the builder's words and the constructor's reading of gens agree, so
    # the phase order and the exponents survive the round trip; the cocycle
    # may be any representative of the class mod Z
    for rep in recorded_reps(random.Random(2802)):
        ell, S = rep.cocycle.ell, [list(row) for row in rep.cocycle.S.entries]
        if rep.n > 1:
            S[0][1] += 7 * ell
            S[1][0] -= 7 * ell
        again = ProjectiveRep(rep.gens, SkewRatForm(S, ell))
        assert (again.L, again.exponents, again.cocycle) == (rep.L, rep.exponents, rep.cocycle)
