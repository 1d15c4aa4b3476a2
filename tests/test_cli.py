import json
import subprocess
import sys

import pytest

from flattori import autofactor
from flattori.cli import run
from flattori.textio import (
    MatrixFormatError,
    dump_matrix,
    load_matrix,
    parse_rational,
)
from flattori.exact_linalg import RatMatrix

THETA_13 = '{"n":2,"m":2,"entries":[["0","1/3"],["-1/3","0"]]}'
THETA_23 = '{"n":2,"m":2,"entries":[["0","2/3"],["-2/3","0"]]}'
THETA_15 = '{"n":2,"m":2,"entries":[["0","1/5"],["-1/5","0"]]}'


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rational():
    assert parse_rational("-1/3") == -parse_rational("1/3")
    assert parse_rational("4/6") == parse_rational("2/3")  # silently reduced
    assert parse_rational("7") == 7
    for bad in ("1.5", "a", "1/ 2", "--3", "1/0", "", "2\n", "1/3\n", "\u0663"):
        with pytest.raises(MatrixFormatError):
            parse_rational(bad)


def test_matrix_round_trip():
    m = RatMatrix([["1/2", "-3"], ["0", "7/5"]])
    assert load_matrix(json.dumps(dump_matrix(m))) == m


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
    T = load_matrix(json.dumps(rec["T"]))
    shift = load_matrix(json.dumps(rec["shift"]))
    # verify the emitted certificate literally
    theta = load_matrix(THETA_13)
    theta2 = load_matrix(THETA_23)
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
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# method=clutching samples=")
    assert lines[1] == "-1"


def test_omega_cli(capsys):
    code, out, _ = invoke(capsys, "omega", "--q", "3", "--a", "1")
    assert code == 0 and out == "2/3\n"
    code, out, _ = invoke(capsys, "omega", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and out.splitlines()[1] == "2/3"
    code, out, _ = invoke(capsys, "omega", "--q", "3", "--a", "1",
                          "--method", "clutching", "--tolerance", "1e-3")
    assert code == 0 and out.splitlines()[0].endswith(" tolerance=1e-3")


def test_clutching_rejects_zero_samples(capsys):
    for command in ("twist", "omega"):
        code, out, err = invoke(capsys, command, "--q", "3", "--a", "1",
                                "--method", "clutching", "--samples", "0")
        assert code == 2 and out == ""
        assert "insufficient samples" in err


def test_omega_tolerance_must_be_finite_and_positive(capsys):
    for tol in ("-1", "0", "-0", "1e-400", "nan", "inf", "-inf", "abc"):
        code, out, err = invoke(capsys, "omega", "--q", "3", "--a", "1",
                                "--method", "clutching", f"--tolerance={tol}")
        assert code == 2 and out == "", tol
        assert "--tolerance" in err


def test_clutching_numerical_failures_are_errors(capsys, monkeypatch):
    # a snap that cannot succeed at this tolerance, and an unwrapping failure
    code, out, err = invoke(capsys, "omega", "--q", "3", "--a", "1",
                            "--method", "clutching", "--tolerance", "1e-300")
    assert code == 2 and out == ""
    assert err.startswith("error: endpoint defect")

    def unwrap_fails(factor, samples):
        raise autofactor.UnwrapError("phase step at or beyond the unwrapping bound")

    monkeypatch.setattr(autofactor, "clutching_twist", unwrap_fails)
    code, out, err = invoke(capsys, "twist", "--q", "3", "--a", "1",
                            "--method", "clutching")
    assert code == 2 and out == ""
    assert err == "error: phase step at or beyond the unwrapping bound\n"


def test_tolerance_is_an_omega_option_only(capsys):
    code, out, _ = invoke(capsys, "twist", "--q", "3", "--a", "1",
                          "--method", "clutching")
    assert code == 0 and "tolerance" not in out
    code, out, err = invoke(capsys, "twist", "--q", "3", "--a", "1",
                            "--method", "clutching", "--tolerance", "1e-3")
    assert code == 2 and out == ""
    assert "--tolerance" in err


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


def test_dump_samples_target_that_cannot_be_opened_is_an_error(tmp_path, capsys):
    code, out, err = invoke(capsys, "twist", "--q", "3", "--a", "1",
                            "--method", "clutching", "--dump-samples", str(tmp_path))
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


# `--format records` output, byte for byte, for forms with mixed block
# denominators: the phases are printed as reduced fractions mod 1
REP_RECORDS = [
    ('{"n":2,"m":2,"entries":[["0","2/5"],["-2/5","0"]]}',
     '{"blocks":["2/5"],"dim":5,"generators":[{"index":0,"perm":[4,0,1,2,3],'
     '"phases":["0","0","0","0","0"]},{"index":1,"perm":[0,1,2,3,4],'
     '"phases":["0","2/5","4/5","1/5","3/5"]}]}\n'),
    ('{"n":4,"m":4,"entries":[["0","0","1/2","0"],["0","0","0","1/3"],'
     '["-1/2","0","0","0"],["0","-1/3","0","0"]]}',
     '{"blocks":["1","1/6"],"dim":6,"generators":[{"index":0,"perm":[0,1,2,3,4,5],'
     '"phases":["0","0","0","0","0","0"]},{"index":1,"perm":[5,0,1,2,3,4],'
     '"phases":["0","0","0","0","0","0"]},{"index":2,"perm":[0,1,2,3,4,5],'
     '"phases":["0","0","0","0","0","0"]},{"index":3,"perm":[0,1,2,3,4,5],'
     '"phases":["0","1/6","1/3","1/2","2/3","5/6"]}]}\n'),
    ('{"n":4,"m":4,"entries":[["0","1/2","0","0"],["-1/2","0","0","0"],'
     '["0","0","0","3/4"],["0","0","-3/4","0"]]}',
     '{"blocks":["3/2","1/4"],"dim":8,"generators":[{"index":0,'
     '"perm":[4,5,6,7,0,1,2,3],"phases":["0","0","0","0","0","0","0","0"]},'
     '{"index":1,"perm":[3,0,1,2,7,4,5,6],"phases":["0","0","0","0","0","0","0","0"]},'
     '{"index":2,"perm":[0,1,2,3,4,5,6,7],"phases":["0","0","0","0","1/2","1/2","1/2","1/2"]},'
     '{"index":3,"perm":[0,1,2,3,4,5,6,7],'
     '"phases":["0","1/4","1/2","3/4","0","1/4","1/2","3/4"]}]}\n'),
]


@pytest.mark.parametrize("theta, records", REP_RECORDS, ids=["dim5", "dim6", "dim8"])
def test_rep_cli_records_pinned(capsys, theta, records):
    code, out, _ = invoke(capsys, "--format", "records", "rep", "--theta", theta)
    assert code == 0 and out == records


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


def test_cocycle_check_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-4"):
        code, out, err = invoke(capsys, "cocycle-check", "--q", "4", "--a", "3",
                                "--trials", trials)
        assert code == 2 and out == ""
        assert "--trials" in err


def test_dump_samples_csv(tmp_path, capsys):
    path = tmp_path / "loop.csv"
    code, _, _ = invoke(capsys, "twist", "--q", "2", "--a", "1",
                        "--method", "clutching", "--samples", "64",
                        "--dump-samples", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,row,col,re,im"
    assert len(lines) == 1 + 65 * 4  # (samples+1) * q^2 entries


def test_console_entry_point(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "flattori.cli", "twist", "--q", "3", "--a", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "-2\n"
