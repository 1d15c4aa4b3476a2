import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod

import oracles
import pytest

import flattori
from flattori.autofactor import AffinePhase, GenPermPhaseMatrix
from flattori.bundles import VectorBundleClass, X_bundle, endo, omega, twist
from flattori.cli import run
from flattori.cohomology import pullback
from flattori.exact_linalg import IntMatrix, SkewRatForm, _lowest_terms
from flattori.nctorus import q_theta
from flattori.projrep import REP_DIM_LIMIT
from flattori.textio import dump_matrix, load_matrix, load_skew
from oracles import RatMatrix, parse_rational

THETA_13 = '{"n":2,"m":2,"entries":[["0","1/3"],["-1/3","0"]]}'
THETA_23 = '{"n":2,"m":2,"entries":[["0","2/3"],["-2/3","0"]]}'
THETA_15 = '{"n":2,"m":2,"entries":[["0","1/5"],["-1/5","0"]]}'


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _one_entry(entry) -> str:
    """A 1 x 1 matrix holding the JSON value entry."""
    return json.dumps({"n": 1, "m": 1, "entries": [[entry]]})


# each is refused by the library's reader and by the Fraction reference
BAD_LITERALS = ("1.5", "a", "1/ 2", "--3", "1/0", "", "2\n", "1/3\n", "\u0663",
                "+1", "1/-2", " 1", "1/00", 1, 1.5, None)


def test_parse_rational():
    assert parse_rational("-1/3") == -parse_rational("1/3")
    assert parse_rational("4/6") == parse_rational("2/3")  # silently reduced
    assert parse_rational("7") == 7
    for bad in BAD_LITERALS:
        with pytest.raises(ValueError, match="literal"):
            load_matrix(_one_entry(bad))
        with pytest.raises(ValueError, match="literal"):
            parse_rational(bad)


def test_malformed_literals_exit_2(capsys):
    for bad in BAD_LITERALS:
        theta = json.dumps({"n": 2, "m": 2, "entries": [["0", bad], ["0", "0"]]})
        for argv in (("q-theta", "--theta", theta),
                     ("classify", "--kind", "vector", "--n", "2", "--q", "2", "--form", theta)):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), (bad, argv)
            assert err.startswith("error: ") and "literal" in err, (bad, err)


def _random_literal(rng) -> str:
    """An integer or p/q literal: reduced or not, negative, zero, multi-digit."""
    num = rng.choice((0, rng.randint(-9, 9), rng.randint(-10 ** 12, 10 ** 12)))
    if rng.random() < 0.3:
        return str(num)
    den = rng.choice((1, rng.randint(1, 12), rng.randint(1, 10 ** 9)))
    scale = rng.choice((1, 1, rng.randint(2, 50)))
    sign = "-" if num == 0 and rng.random() < 0.2 else ""
    return f"{sign}{num * scale}/{den * scale}"


def test_matrix_reader_matches_the_fraction_reference():
    # the library's (N, d) equals _lowest_terms of the reference Fractions
    rng = random.Random(3202)
    for trial in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[_random_literal(rng) for _ in range(cols)] for _ in range(rows)]
        if trial % 7 == 0:
            entries = [["0"] * cols for _ in range(rows)]
        N, d = load_matrix(json.dumps({"n": rows, "m": cols, "entries": entries}))
        assert type(d) is int and all(type(x) is int for row in N.entries for x in row)
        assert (N, d) == _lowest_terms([[parse_rational(x) for x in row] for row in entries])


def _fractions(N, d) -> RatMatrix:
    """The rational matrix N / d."""
    return RatMatrix(N).scale(Fraction(1, d))


def test_matrix_round_trip():
    m = IntMatrix([[1, -3], [0, 17]])
    assert load_matrix(json.dumps(dump_matrix(m))) == (m, 1)
    got = load_matrix('{"n":2,"m":2,"entries":[["2/4","-3"],["0","14/10"]]}')
    assert _fractions(*got) == ((Fraction(1, 2), -3), (0, Fraction(7, 5)))
    assert got == (IntMatrix([[5, -30], [0, 14]]), 10)
    assert type(got[1]) is int and all(type(x) is int for row in got[0].entries for x in row)
    for bad in ('{"n":0,"m":0,"entries":[]}', '{"n":1,"m":0,"entries":[[]]}'):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            load_matrix(bad)


def test_q_theta_cli(capsys):
    code, out, _ = invoke(capsys, "q-theta", "--theta", THETA_13)
    assert code == 0 and out == "3\n"


def test_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(THETA_13, encoding="ascii")
    code, out, _ = invoke(capsys, "q-theta", "--theta", str(path))
    assert code == 0 and out == "3\n"
    code, _, err = invoke(capsys, "q-theta", "--theta", str(tmp_path / "nope.json"))
    assert code == 2
    code, out, _ = invoke(capsys, "q-theta", "--theta",
                          '{"n":2,"m":2,"entries":[["0","0"],["0","0"]]}')
    assert code == 0 and out == "1\n"


def test_iso_cli_positive(capsys):
    code, out, _ = invoke(capsys, "--format", "records", "iso",
                          "--theta", THETA_13, "--theta-prime", THETA_23)
    assert code == 0
    rec = json.loads(out)
    assert rec["isomorphic"] is True
    T = _fractions(*load_matrix(json.dumps(rec["T"])))
    shift = _fractions(*load_matrix(json.dumps(rec["shift"])))
    # verify the emitted certificate literally
    theta = _fractions(*load_matrix(THETA_13))
    theta2 = _fractions(*load_matrix(THETA_23))
    lhs = T @ theta @ T.transpose() + shift
    assert lhs == theta2


def test_iso_cli_negative_exit_code(capsys):
    code, out, _ = invoke(capsys, "iso", "--theta", THETA_15,
                          "--theta-prime", '{"n":2,"m":2,"entries":[["0","2/5"],["-2/5","0"]]}')
    assert code == 1
    assert "not isomorphic" in out


def test_iso_cli_rejects_cap_option(capsys):
    # the decision is complete, so there is no orbit cap to set
    code, out, err = invoke(capsys, "iso", "--theta", THETA_13,
                            "--theta-prime", THETA_23, "--cap", "5")
    assert code == 2
    assert out == ""
    assert "--cap" in err


def test_iso_cli_decides_n6_unit_class_negative(capsys):
    # J + J + J against J + J + 2J over 5: equal chains, unit classes 1 and 2
    def blocks(*nums):
        rows = [["0"] * 6 for _ in range(6)]
        for i, x in enumerate(nums):
            rows[2 * i][2 * i + 1] = f"{x}/5"
            rows[2 * i + 1][2 * i] = f"-{x}/5"
        return json.dumps({"n": 6, "m": 6, "entries": rows})

    code, out, _ = invoke(capsys, "iso", "--theta", blocks(1, 1, 1),
                          "--theta-prime", blocks(1, 1, 2))
    assert code == 1 and out == "not isomorphic\n"


def test_twist_cli(capsys):
    code, out, _ = invoke(capsys, "twist", "--q", "3", "--a", "1")
    assert code == 0 and out == "-1\n"
    code, out, _ = invoke(capsys, "twist", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and out == "# method=clutching\n-1\n"
    code, out, _ = invoke(capsys, "--format", "records", "twist", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and out == '{"method":"clutching","twist":-1}\n'


def test_omega_cli(capsys):
    code, out, _ = invoke(capsys, "omega", "--q", "3", "--a", "1")
    assert code == 0 and out == "2/3\n"
    code, out, _ = invoke(capsys, "omega", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and out == "# method=clutching\n2/3\n"
    code, out, _ = invoke(capsys, "--format", "records", "omega", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and out == '{"method":"clutching","omega":"2/3"}\n'


def test_clutching_and_exact_agree_in_both_orientations(capsys):
    for q in range(1, 9):
        for a in range(-8, 9):
            for orientation in ((), ("--reversed-orientation",)):
                for command in ("twist", "omega"):
                    answers = []
                    for method in ("exact", "clutching"):
                        code, out, _ = invoke(capsys, "--format", "records", command,
                                              "--q", str(q), "--a", str(a),
                                              "--method", method, *orientation)
                        assert code == 0
                        answers.append(json.loads(out)[command])
                    assert answers[0] == answers[1], (command, q, a, orientation)


def test_reversed_orientation_is_the_pullback_along_the_swap(capsys):
    # reversing T^2 pulls c1 back along e1 <-> e2: both methods print the
    # standard-orientation invariants of that pullback
    swap = IntMatrix([[0, 1], [1, 0]])
    for q in range(1, 9):
        for a in range(-8, 9):
            e = VectorBundleClass(q, pullback(X_bundle(q, a).c1, swap))
            for command, value in (("twist", twist(e)), ("omega", str(omega(endo(e))))):
                for method in ("exact", "clutching"):
                    code, out, _ = invoke(capsys, "--format", "records", command,
                                          "--q", str(q), "--a", str(a), "--method", method,
                                          "--reversed-orientation")
                    assert (code, json.loads(out)) == (0, {command: value, "method": method}), \
                        (command, q, a, method)


def _clutching_usage_error(capsys, command, *option):
    # the clutching invariants are exact: sample counts, tolerances and dumps are
    # unrecognized arguments
    code, out, err = invoke(capsys, command, "--q", "3", "--a", "1",
                            "--method", "clutching", *option)
    assert code == 2 and out == "", option
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_clutching_rejects_zero_samples(capsys):
    for command in ("twist", "omega"):
        for count in ("0", "64"):
            _clutching_usage_error(capsys, command, "--samples", count)


def test_omega_tolerance_must_be_finite_and_positive(capsys):
    # nothing is snapped, so no tolerance is accepted, finite and positive or not
    for tol in ("1e-3", "-1", "0", "-0", "1e-400", "nan", "inf", "-inf", "abc"):
        _clutching_usage_error(capsys, "omega", f"--tolerance={tol}")


def test_tolerance_is_an_omega_option_only(capsys):
    code, out, _ = invoke(capsys, "twist", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and "tolerance" not in out
    for command in ("twist", "omega"):
        _clutching_usage_error(capsys, command, "--tolerance", "1e-3")


def test_dump_samples_target_that_cannot_be_opened_is_an_error(tmp_path, capsys):
    for command in ("twist", "omega"):
        _clutching_usage_error(capsys, command, "--dump-samples", str(tmp_path))
        _clutching_usage_error(capsys, command, "--dump-samples",
                               str(tmp_path / "loop.csv"))
    assert not (tmp_path / "loop.csv").exists()


def test_parse_error_exit_code(capsys):
    for theta in ('{"n":2,"m":2,"entries":[["0","1.5"],["-3/2","0"]]}',
                  '{"n":2.9,"m":2,"entries":[["0","1/3"],["-1/3","0"]]}',
                  '{"n":2,"m":"2","entries":[["0","1/3"],["-1/3","0"]]}',
                  '{"n":true,"m":1,"entries":[["0"]]}',
                  '{"n":2,"m":2}'):
        code, out, err = invoke(capsys, "q-theta", "--theta", theta)
        assert code == 2 and out == ""
        assert "error" in err


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2


def test_integer_options_are_ascii_decimal_literals(capsys):
    # int() read each of these as a number
    for text in ("1_2", "\u0663", " 2", "+3", "2\n"):
        for argv in (("table", "--q", text), ("twist", "--q", "3", "--a", text),
                     ("cocycle-check", "--q", "3", "--a", "1", "--trials", text),
                     ("iso", "--theta", THETA_13, "--theta-prime", THETA_23, "--m", text)):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"malformed integer literal: {text!r}" in err, argv
    assert invoke(capsys, "twist", "--q", "3", "--a", "-3") == (0, "3\n", "")


def test_table_q5(capsys):
    code, out, _ = invoke(capsys, "table", "--q", "5")
    assert code == 0
    assert "pairwise non-isomorphic matrix classes: 5/5" in out
    code, out, _ = invoke(capsys, "--format", "records", "table", "--q", "5")
    rec = json.loads(out)
    assert rec["distinct_matrix_classes"] == 5
    assert [r["twist"] for r in rec["rows"]] == [0, -1, -2, -3, -4]


def test_table_rejects_empty_ranges(capsys):
    for argv in (("--q", "0"), ("--q", "-3"), ("--q", "5", "--a-min", "3", "--a-max", "2"),
                 ("--q", "3", "--a-min", "4")):
        code, out, err = invoke(capsys, "table", *argv)
        assert code == 2 and out == ""
        assert "error" in err


def test_matrix_path_that_cannot_be_opened_is_an_error(tmp_path, capsys):
    code, out, err = invoke(capsys, "q-theta", "--theta", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_determinism(capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = invoke(capsys, "--format", "records", "normal-form",
                              "--theta", THETA_13)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_rep_cli(capsys):
    code, out, _ = invoke(capsys, "--format", "records", "rep", "--theta", THETA_13)
    assert code == 0
    rec = json.loads(out)
    assert rec["dim"] == 3
    assert rec["blocks"] == ["1/3"]
    assert len(rec["generators"]) == 2


def _run_python(code):
    """Run code in a fresh interpreter that imports this flattori."""
    src = os.path.dirname(os.path.dirname(flattori.__file__))
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code],
                          capture_output=True, text=True, timeout=60)


def test_rep_refuses_q_theta_above_the_limit(capsys):
    # blocks 1/97, 1/101, 1/103: q_theta = 1009091, refused before any generator is built
    rows = [["0"] * 6 for _ in range(6)]
    for i, q in enumerate((97, 101, 103)):
        rows[2 * i][2 * i + 1], rows[2 * i + 1][2 * i] = f"1/{q}", f"-1/{q}"
    theta = json.dumps({"n": 6, "m": 6, "entries": rows})
    proc = _run_python(
        "import json, resource, time\n"
        "from flattori.cli import run\n"
        f"run(['q-theta', '--theta', {THETA_13!r}])  # parser and imports warm\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "t = time.perf_counter()\n"
        f"code = run(['rep', '--theta', {theta!r}])\n"
        "print(json.dumps([code, time.perf_counter() - t,\n"
        "                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss]))\n")
    assert proc.returncode == 0, proc.stderr
    code, seconds, rss_kb = json.loads(proc.stdout.splitlines()[-1])
    assert code == 2 and seconds < 1 and rss_kb < 8 * 1024, (seconds, rss_kb)
    assert proc.stderr.splitlines()[-1] == \
        f"error: dimension 1009091 exceeds the rep limit {REP_DIM_LIMIT}"
    assert run(["rep", "--help"]) == 0
    assert f"q_theta > {REP_DIM_LIMIT}" in capsys.readouterr().out.replace("\n", " ")


def test_library_and_cli_run_without_numpy():
    # NumPy is a test dependency: every library module imports and the
    # clutching route runs with numpy unimportable
    proc = _run_python(
        "sys.modules['numpy'] = None\n"
        "import importlib, pkgutil, flattori, flattori.cli\n"
        "for m in pkgutil.iter_modules(flattori.__path__):\n"
        "    importlib.import_module('flattori.' + m.name)\n"
        "sys.exit(flattori.cli.run(['twist', '--q', '3', '--a', '1', '--method', 'clutching']))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "# method=clutching\n-1\n"


# `--format records` output, byte for byte, for forms with mixed block
# denominators: the phases are printed as reduced fractions mod 1.  The
# generators realize theta itself, not its normal form T theta T^t.
REP_RECORDS = [
    ('{"n":2,"m":2,"entries":[["0","2/5"],["-2/5","0"]]}',
     '{"blocks":["2/5"],"dim":5,"generators":[{"index":0,"perm":[4,0,1,2,3],'
     '"phases":["0","0","0","0","0"]},{"index":1,"perm":[0,1,2,3,4],'
     '"phases":["0","2/5","4/5","1/5","3/5"]}]}\n'),
    ('{"n":4,"m":4,"entries":[["0","0","1/2","0"],["0","0","0","1/3"],'
     '["-1/2","0","0","0"],["0","-1/3","0","0"]]}',
     '{"blocks":["1","1/6"],"dim":6,"generators":[{"index":0,"perm":[0,1,2,3,4,5],'
     '"phases":["0","1/2","0","1/2","0","1/2"]},{"index":1,"perm":[2,3,4,5,0,1],'
     '"phases":["0","0","0","0","0","0"]},{"index":2,"perm":[3,4,5,0,1,2],'
     '"phases":["0","0","0","0","0","0"]},{"index":3,"perm":[0,1,2,3,4,5],'
     '"phases":["0","1/3","2/3","0","1/3","2/3"]}]}\n'),
    ('{"n":4,"m":4,"entries":[["0","1/2","0","0"],["-1/2","0","0","0"],'
     '["0","0","0","3/4"],["0","0","-3/4","0"]]}',
     '{"blocks":["3/2","1/4"],"dim":8,"generators":[{"index":0,'
     '"perm":[2,3,0,1,6,7,4,5],"phases":["0","0","0","0","1/2","1/2","1/2","1/2"]},'
     '{"index":1,"perm":[4,5,6,7,0,1,2,3],"phases":["0","1/2","0","1/2","0","1/2","0","1/2"]},'
     '{"index":2,"perm":[1,2,3,0,5,6,7,4],"phases":["0","0","0","0","1/2","1/2","1/2","1/2"]},'
     '{"index":3,"perm":[4,5,6,7,0,1,2,3],'
     '"phases":["0","3/4","1/2","1/4","0","3/4","1/2","1/4"]}]}\n'),
]


@pytest.mark.parametrize("theta, records", REP_RECORDS, ids=["dim5", "dim6", "dim8"])
def test_rep_cli_records_pinned(capsys, theta, records):
    code, out, _ = invoke(capsys, "--format", "records", "rep", "--theta", theta)
    assert code == 0 and out == records
    assert oracles.matrix_commutation_holds(_record_generators(out), load_skew(theta))


def _record_generators(out):
    """The generator matrices of a `rep --format records` line."""
    return [GenPermPhaseMatrix(g["perm"], [AffinePhase((), Fraction(x)) for x in g["phases"]])
            for g in json.loads(out)["generators"]]


def test_rep_cli_realizes_theta_on_transported_forms(capsys):
    # block normal forms moved by GL(n, Z) and integer shifts: each printed
    # representation satisfies U_j U_i = e(theta_ji) U_i U_j for theta itself,
    # checked on matrix products (it used to be the representation of
    # T theta T^t, which fails these relations once T is not the identity)
    rng = random.Random(2020)
    for trial in range(200):
        n = 2 + trial % 5
        pairs = []
        for _ in range(rng.randint(1, n // 2)):
            q = rng.randint(1, 12)
            if q * prod(b for b, _ in pairs) <= 144:
                pairs.append((q, rng.randint(-2 * q, 2 * q)))
        T = oracles.unimodular_sample(n, seed=trial, word_length=rng.randint(1, 12))
        shift = oracles.fraction_matrix(oracles.random_skew_rat(rng, n, max_den=1))
        theta = SkewRatForm(oracles.fraction_matrix(
            oracles.block_normal_form(pairs, n).congruence(T)) + shift)
        text = json.dumps({"n": n, "m": n, "entries": [
            [str(Fraction(x, theta.ell)) for x in row] for row in theta.S.entries]})
        code, out, _ = invoke(capsys, "--format", "records", "rep", "--theta", text)
        assert code == 0
        assert json.loads(out)["dim"] == q_theta(theta)
        assert oracles.matrix_commutation_holds(_record_generators(out), theta), text


def test_cocycle_check_cli_records_pinned(capsys):
    code, out, _ = invoke(capsys, "--format", "records", "cocycle-check", "--q", "3",
                          "--a", "-2", "--trials", "3", "--seed", "7")
    assert code == 0
    assert out == ('{"factor":[{"gamma":[1,0],"perm":[0,1,2],"phases":[["0","0","0"],'
                   '["0","0","0"],["0","0","0"]]},{"gamma":[0,1],"perm":[2,0,1],'
                   '"phases":[["2","0","0"],["0","0","0"],["0","0","0"]]}],"trials":3,'
                   '"violations":[]}\n')


def test_classify_cli(capsys):
    code, out, _ = invoke(capsys, "--format", "records", "classify",
                          "--kind", "vector", "--n", "2", "--q", "3",
                          "--form", '{"n":2,"m":2,"entries":[["0","-1"],["1","0"]]}')
    assert code == 0
    rec = json.loads(out)
    assert rec == {"kind": "vector", "n": 2, "q": 3,
                   "form": {"n": 2, "m": 2, "entries": [["0", "-1"], ["1", "0"]]}}
    # non-alternating input is refused
    code, _, err = invoke(capsys, "classify", "--kind", "vector", "--n", "2",
                          "--q", "3",
                          "--form", '{"n":2,"m":2,"entries":[["0","1"],["1","0"]]}')
    assert code == 2


def test_classify_cli_refuses_a_nonzero_diagonal_mod_q(capsys):
    # 2 * 1 = 0 mod 2, but no alternating integer form reduces to this one
    code, out, err = invoke(capsys, "classify", "--kind", "matrix", "--n", "2", "--q", "2",
                            "--form", '{"n":2,"m":2,"entries":[["1","1"],["1","0"]]}')
    assert (code, out, err) == (2, "", "error: matrix is not alternating mod q\n")


def test_classify_cli_refuses_a_form_whose_size_is_not_n(capsys):
    # a class reads n off its form, so the CLI checks --n against the form
    form = '{"n":2,"m":2,"entries":[["0","-1"],["1","0"]]}'
    for kind in ("vector", "matrix"):
        for fmt in ("human", "records"):
            code, out, err = invoke(capsys, "--format", fmt, "classify", "--kind", kind,
                                    "--n", "3", "--q", "3", "--form", form)
            assert (code, out) == (2, ""), (kind, fmt)
            assert err == "error: --n 3 does not match the 2 x 2 form\n", (kind, fmt)


def test_classify_cli_refuses_a_non_square_form_for_both_kinds(capsys):
    # --n is checked against both dimensions, before either class reads the form
    form = '{"n":2,"m":3,"entries":[["0","1","0"],["-1","0","0"]]}'
    for kind in ("vector", "matrix"):
        code, out, err = invoke(capsys, "classify", "--kind", kind,
                                "--n", "2", "--q", "2", "--form", form)
        assert (code, out, err) == (2, "", "error: --n 2 does not match the 2 x 3 form\n"), kind


def test_classify_cli_rejects_non_integer_forms(capsys):
    half = '{"n":2,"m":2,"entries":[["0","1/2"],["-1/2","0"]]}'
    for kind in ("vector", "matrix"):
        for fmt in ("human", "records"):
            code, out, err = invoke(capsys, "--format", fmt, "classify", "--kind", kind,
                                    "--n", "2", "--q", "3", "--form", half)
            assert (code, out) == (2, "")
            assert err == "error: bundle class forms must have integer entries\n"
    # an integral Fraction literal is an integer entry
    code, out, _ = invoke(capsys, "classify", "--kind", "matrix", "--n", "2", "--q", "3",
                          "--form", '{"n":2,"m":2,"entries":[["0","4/2"],["-2","0"]]}')
    assert code == 0 and "2" in out


def test_cocycle_check_cli(capsys):
    code, out, _ = invoke(capsys, "cocycle-check", "--q", "4", "--a", "3",
                          "--trials", "50")
    assert code == 0
    assert out == "violations: 0/50\n"
    code, out, _ = invoke(capsys, "--format", "records", "cocycle-check",
                          "--q", "2", "--a", "1", "--trials", "10")
    rec = json.loads(out)
    assert rec["violations"] == []
    # generator dump: (gamma, perm, phases) records
    assert rec["factor"][1]["gamma"] == [0, 1]
    assert rec["factor"][1]["perm"] == [1, 0]
    assert rec["factor"][1]["phases"][0] == ["-1", "0", "0"]


def test_options_that_must_be_positive_name_themselves(capsys):
    form = '{"n":2,"m":2,"entries":[["0","-1"],["1","0"]]}'
    cases = [(("twist", "--a", "1"), "--q"), (("omega", "--a", "1"), "--q"),
             (("classify", "--kind", "matrix", "--n", "2", "--form", form), "--q"),
             (("classify", "--kind", "vector", "--q", "2", "--form", form), "--n"),
             (("cocycle-check", "--a", "1"), "--q"), (("table",), "--q"),
             (("iso", "--theta", THETA_13, "--theta-prime", THETA_23), "--m"),
             (("iso", "--theta", THETA_13, "--theta-prime", THETA_23), "--m-prime")]
    for argv, option in cases:
        for value in ("0", "-2"):
            code, out, err = invoke(capsys, *argv, option, value)
            assert (code, out) == (2, ""), (argv, option)
            assert f"argument {option}: must be >= 1, got {value}" in err, (argv, option)


def test_cocycle_check_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-4"):
        code, out, err = invoke(capsys, "cocycle-check", "--q", "4", "--a", "3",
                                "--trials", trials)
        assert code == 2 and out == ""
        assert "--trials" in err


def test_console_entry_point(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "flattori.cli", "twist", "--q", "3", "--a", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-2\n"
