"""Every CLI subcommand prints the recorded bytes in both formats, with the
recorded exit codes and error messages.

The digests were recorded with the earlier text reader, which parsed each
literal into a Fraction and built the human lines for every request: the
same stdout and exit codes come out of the reader of integer numerators
over one denominator, which builds only the requested format."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import oracles
import pytest

from flattori import cli
from flattori.cli import run


def _text(theta, scale=1) -> str:
    """theta = S / ell as a JSON matrix, each literal's terms multiplied by
    scale (so scale > 1 writes unreduced literals)."""
    return json.dumps({"n": theta.n, "m": theta.n, "entries": [
        [f"{f.numerator * scale}/{f.denominator * scale}" if f.denominator > 1 or scale > 1
         else str(f.numerator) for f in (Fraction(x, theta.ell) for x in row)]
        for row in theta.S.entries]})


def _forms():
    """(text, text of an isomorphic form): block normal forms with 1-3
    blocks, moved by GL(n, Z) and integer shifts, some written unreduced."""
    rng = random.Random(3201)
    for trial in range(12):
        n = 2 + trial % 5
        pairs = []
        for _ in range(rng.randint(1, n // 2)):
            q = rng.choice([d for d in range(1, 13) if not pairs or d % pairs[-1][0] == 0]
                           or [pairs[-1][0]])
            pairs.append((q, rng.choice([p for p in range(-q, 2 * q) if p])))
        base = oracles.block_normal_form(pairs, n)
        moved = [base.congruence(oracles.unimodular_sample(n, seed=100 * trial + k,
                                                           word_length=2 + 3 * k))
                 for k in range(2)]
        shift = oracles.random_skew_rat(rng, n, max_den=1, max_num=4)
        second = oracles.fraction_matrix(moved[1]) + oracles.fraction_matrix(shift)
        yield _text(moved[0], 1 + trial % 3), json.dumps({
            "n": n, "m": n, "entries": [[str(x) for x in row] for row in second.entries]})


FIXED_THETAS = [
    '{"n":2,"m":2,"entries":[["0","1/3"],["-1/3","0"]]}',
    '{"n":2,"m":2,"entries":[["0","-14/21"],["4/6","0"]]}',
    '{"n":1,"m":1,"entries":[["-0"]]}',
    '{"n":3,"m":3,"entries":[["0","0/7","5"],["0","0","-3/1"],["-5","3","0"]]}',
    '{"n":4,"m":4,"entries":[["0","1/2","0","0"],["-1/2","0","0","0"],'
    '["0","0","0","3/4"],["0","0","-3/4","0"]]}',
]

ISO_NEGATIVES = [
    ('{"n":2,"m":2,"entries":[["0","1/5"],["-1/5","0"]]}',
     '{"n":2,"m":2,"entries":[["0","2/5"],["-2/5","0"]]}'),
    ('{"n":2,"m":2,"entries":[["0","1/3"],["-1/3","0"]]}',
     '{"n":2,"m":2,"entries":[["0","1/4"],["-1/4","0"]]}'),
    (FIXED_THETAS[4], '{"n":4,"m":4,"entries":[["0","1/8","0","0"],["-1/8","0","0","0"],'
                      '["0","0","0","0"],["0","0","0","0"]]}'),
]

CLASS_FORMS = [
    '{"n":2,"m":2,"entries":[["0","-1"],["1","0"]]}',
    '{"n":2,"m":2,"entries":[["0","4/2"],["-2","0"]]}',
    '{"n":3,"m":3,"entries":[["0","7","-12"],["-7","0","5"],["12","-5","0"]]}',
    '{"n":4,"m":4,"entries":[["0","1","0","3"],["-1","0","2","0"],["0","-2","0","1"],'
    '["-3","0","-1","0"]]}',
    # refused (exit 2): a non-integer entry, a form that is not alternating
    '{"n":2,"m":2,"entries":[["0","1/2"],["-1/2","0"]]}',
    '{"n":2,"m":2,"entries":[["1","1"],["1","0"]]}',
]


def invocations():
    """The argv lists, one per invocation, without the --format option."""
    forms = list(_forms())
    thetas = FIXED_THETAS + [a for a, _ in forms]
    for theta in thetas:
        yield ["q-theta", "--theta", theta]
        yield ["normal-form", "--theta", theta]
    for theta, theta2 in forms + ISO_NEGATIVES:
        yield ["iso", "--theta", theta, "--theta-prime", theta2]
    yield ["iso", "--theta", FIXED_THETAS[0], "--theta-prime", FIXED_THETAS[0],
           "--m", "2", "--m-prime", "2"]
    for command in ("twist", "omega"):
        for q, a in ((1, 0), (2, 1), (3, -2), (6, 5), (7, -9)):
            for method in ("exact", "clutching"):
                for orientation in ((), ("--reversed-orientation",)):
                    yield [command, "--q", str(q), "--a", str(a), "--method", method,
                           *orientation]
    for form in CLASS_FORMS:
        n = json.loads(form)["n"]
        for kind in ("vector", "matrix"):
            for q in (1, 3, 4):
                yield ["classify", "--kind", kind, "--n", str(n), "--q", str(q), "--form", form]
    for q, a, trials, seed in ((3, -2, 3, 7), (4, 3, 5, 0), (1, 0, 2, 1)):
        yield ["cocycle-check", "--q", str(q), "--a", str(a), "--trials", str(trials),
               "--seed", str(seed)]
    for theta in thetas[:8]:
        yield ["rep", "--theta", theta]
    for bounds in ((), ("--a-min", "-2", "--a-max", "4")):
        for q in (1, 5, 12):
            yield ["table", "--q", str(q), *bounds]


def digest(fmt: str):
    """(sha256 of every invocation's argv, exit code, stdout in the format
    fmt and stderr; the number of invocations)."""
    h, count = hashlib.sha256(), 0
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--format", fmt] + argv)
        h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        count += 1
    return h.hexdigest(), count


RECORDED_HUMAN = "73ee090345051f90d56057e93a1deadc60ff75ee79c5f30b92d8631bbe3ee4b8"
RECORDED_RECORDS = "3bf6742dd0f9f6fa5a83236243a739e51af845abafed4ad6f9825a8ce66f4f1f"
RECORDED_COUNT = 143


def test_human_output_matches_the_recorded_bytes():
    assert digest("human") == (RECORDED_HUMAN, RECORDED_COUNT)


def test_records_output_matches_the_recorded_bytes():
    assert digest("records") == (RECORDED_RECORDS, RECORDED_COUNT)


def test_records_format_builds_no_human_lines(monkeypatch):
    # every subcommand hands _emit a function for its human lines, and the
    # records format never calls it
    emit = cli._emit

    def records_only(args, human, record_obj):
        assert callable(human)
        emit(args, lambda: pytest.fail("human lines built for --format records"), record_obj)

    monkeypatch.setattr(cli, "_emit", records_only)
    assert digest("records") == (RECORDED_RECORDS, RECORDED_COUNT)
