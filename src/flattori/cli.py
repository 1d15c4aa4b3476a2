"""Command-line front end.

Every subcommand delegates to the library operation of the same name.  The
text protocol is exact: integers and p/q literals only, ASCII only, and
identical invocations produce byte-identical output.  Integer options are
ASCII decimal literals (`textio.parse_int`).  Floating point appears nowhere.
The CLI checks its own options before the library sees them: every option
that must be >= 1 (`--q`, `--n`, `--m`, `--m-prime`, `--trials`) is read by
`_positive_int`, so its error names the option, and `classify` refuses a
form whose size is not `--n`, since a class reads n off its form.
Each subcommand passes `_emit` its record and a function that builds its
human lines, so those lines are built only for `--format human`.
`twist`/`omega --method clutching` read the concrete clutching loop of the
factor of automorphy instead of the class formula.  The library computes
both in the standard orientation; `--reversed-orientation` is one sign,
applied here to the value of either method: it negates the twist and
inverts omega.  `rep` prints theta's own representation,
`nctorus.clock_shift_rep` (the rows of T^-1).

Exit codes: 0 success, 1 negative decision, 2 usage or parse error (an
out-of-range option, an empty `table` range or a `rep` dimension above
projrep.REP_DIM_LIMIT included) or a file that cannot be opened.  Malformed
text, like any value the library refuses, is a `ValueError`, which `run`
prints as a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import autofactor, bundles, nctorus
from .cohomology import AltFormModQ, AltFormZ
from .projrep import REP_DIM_LIMIT
from .textio import (
    dump_matrix,
    dump_matrix_class,
    dump_vector_class,
    load_matrix,
    load_skew,
    parse_int,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _records(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, human, record_obj) -> None:
    """Print record_obj, or the lines human() builds for --format human."""
    if args.format == "records":
        print(_records(record_obj))
    else:
        for line in human():
            print(line)


def _rows(M) -> list[str]:
    return [" ".join(str(x) for x in row) for row in M.entries]


def _blocks(nf) -> list[str]:
    """The normal-form blocks (q, p) as p/q literals, p alone when q = 1."""
    return [f"{p}/{q}" if q > 1 else str(p) for q, p in nf.blocks]


def cmd_q_theta(args) -> int:
    theta = load_skew(args.theta)
    q = nctorus.q_theta(theta)
    _emit(args, lambda: [str(q)], {"q_theta": q})
    return EXIT_OK


def cmd_normal_form(args) -> int:
    theta = load_skew(args.theta)
    nf = nctorus.normal_form(theta)
    rec = {
        "T": dump_matrix(nf.T),
        "blocks": _blocks(nf),
        "free_rank": nf.free_rank,
    }
    _emit(args, lambda: ["blocks: " + (" ".join(rec["blocks"]) or "(none)"),
                         f"free_rank: {nf.free_rank}", "T:", *_rows(nf.T)], rec)
    return EXIT_OK


def cmd_iso(args) -> int:
    theta = load_skew(args.theta)
    theta2 = load_skew(args.theta_prime)
    p1 = nctorus.NCTorusParams(theta.n, theta, args.m)
    p2 = nctorus.NCTorusParams(theta2.n, theta2, args.m_prime)
    d = nctorus.iso_decide(p1, p2)
    if d.is_iso:
        rec = {"isomorphic": True, "T": dump_matrix(d.T), "shift": dump_matrix(d.shift)}
        _emit(args, lambda: ["isomorphic", "T:", *_rows(d.T), "shift:", *_rows(d.shift)],
              rec)
        return EXIT_OK
    _emit(args, lambda: ["not isomorphic"], {"isomorphic": False})
    return EXIT_NEGATIVE


def _method_lines(args, value) -> list[str]:
    """The human lines of a twist or omega value; a clutching value is marked."""
    return ["# method=clutching", str(value)] if args.method == "clutching" else [str(value)]


def cmd_twist(args) -> int:
    if args.method == "clutching":
        value = autofactor.clutching_twist(autofactor.factor_from(args.q, args.a))
    else:
        value = bundles.twist(bundles.X_bundle(args.q, args.a))
    value *= -1 if args.reversed_orientation else 1
    _emit(args, lambda: _method_lines(args, value), {"twist": value, "method": args.method})
    return EXIT_OK


def cmd_omega(args) -> int:
    if args.method == "clutching":
        value = autofactor.clutching_omega(autofactor.factor_from(args.q, args.a))
    else:
        value = bundles.omega(bundles.endo(bundles.X_bundle(args.q, args.a)))
    value **= -1 if args.reversed_orientation else 1
    _emit(args, lambda: _method_lines(args, value),
          {"omega": str(value), "method": args.method})
    return EXIT_OK


def cmd_classify(args) -> int:
    mat, d = load_matrix(args.form)
    if d != 1:
        raise ValueError("bundle class forms must have integer entries")
    if (mat.rows, mat.cols) != (args.n, args.n):
        raise ValueError(f"--n {args.n} does not match the {mat.rows} x {mat.cols} form")
    if args.kind == "vector":
        cls = bundles.VectorBundleClass(args.q, AltFormZ(mat))
        _emit(args, lambda: [f"vector class: n={cls.n} rank={cls.rank}", "c1:",
                             *_rows(cls.c1.mat)], dump_vector_class(cls))
    else:
        cls = bundles.MatrixBundleClass(AltFormModQ(mat, args.q))
        _emit(args, lambda: [f"matrix class: n={cls.n} size={cls.size}",
                             f"beta (mod {args.q}):", *_rows(cls.beta.mat)],
              dump_matrix_class(cls))
    return EXIT_OK


def cmd_cocycle_check(args) -> int:
    factor = autofactor.factor_from(args.q, args.a)
    violations = autofactor.check_cocycle(factor, args.trials, seed=args.seed)
    rec = {
        "trials": args.trials,
        "violations": [list(map(list, v)) for v in violations],
        "factor": [{"gamma": list(g), "perm": perm, "phases": phases}
                   for g, perm, phases in factor.records()],
    }
    _emit(args, lambda: [f"violations: {len(violations)}/{args.trials}"], rec)
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_rep(args) -> int:
    theta = load_skew(args.theta)
    nf = nctorus.normal_form(theta)
    rep = nctorus.clock_shift_rep(theta, nf)
    rec = {
        "dim": rep.dim,
        "blocks": _blocks(nf),
        "generators": [
            {"index": i, "perm": perm, "phases": phases}
            for i, perm, phases in rep.records()
        ],
    }
    _emit(args, lambda: [f"dim: {rep.dim}", "blocks: " + (" ".join(rec["blocks"]) or "(none)"),
                         *(f"U{g['index']}: perm={','.join(map(str, g['perm']))} "
                           f"phases={','.join(g['phases'])}" for g in rec["generators"])],
          rec)
    return EXIT_OK


def cmd_table(args) -> int:
    q = args.q
    a_lo = args.a_min
    a_hi = args.a_max if args.a_max is not None else q - 1
    if a_lo > a_hi:
        raise ValueError(f"empty range: --a-min {a_lo} exceeds --a-max {a_hi}")
    rows = []
    classes = []
    for a in range(a_lo, a_hi + 1):
        e = bundles.X_bundle(q, a)
        mat_cls = bundles.endo(e)
        classes.append(mat_cls)
        rows.append({
            "a": a,
            "c1_pairing": e.c1.mat[0][1],
            "twist": bundles.twist(e),
            "beta_pairing": mat_cls.beta.mat[0][1],
            "omega": str(bundles.omega(mat_cls)),
        })
    distinct = len(set(classes))  # isomorphic matrix classes are equal records
    rec = {"q": q, "rows": rows, "distinct_matrix_classes": distinct,
           "total_rows": len(rows)}
    _emit(args, lambda: [
        f"q={q}  a={a_lo}..{a_hi}", "a\tc1(e1,e2)\ttwist\tbeta(e1,e2)\tomega",
        *(f"{r['a']}\t{r['c1_pairing']}\t{r['twist']}\t{r['beta_pairing']}\t{r['omega']}"
          for r in rows),
        f"pairwise non-isomorphic matrix classes: {distinct}/{len(rows)}"], rec)
    return EXIT_OK


def _integer(text: str) -> int:
    """An integer option, read as the text protocol reads an integer."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, because argparse keeps
    no state between parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="flattori",
        description="Exact invariants and isomorphism decisions for flat "
                    "bundles on tori and rational noncommutative tori.")
    parser.add_argument("--format", choices=("human", "records"), default="human",
                        help="human table or machine JSON records")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("q-theta", help="square root of the lattice index of theta")
    p.add_argument("--theta", required=True, help="skew rational matrix (path or inline JSON)")
    p.set_defaults(func=cmd_q_theta)

    p = sub.add_parser("normal-form", help="GL(n,Z) block normal form of theta")
    p.add_argument("--theta", required=True)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("iso", help="decide isomorphism of two torus algebras")
    p.add_argument("--theta", required=True)
    p.add_argument("--theta-prime", required=True)
    p.add_argument("--m", type=_positive_int, default=1)
    p.add_argument("--m-prime", type=_positive_int, default=1)
    p.set_defaults(func=cmd_iso)

    for name, fn in (("twist", cmd_twist), ("omega", cmd_omega)):
        p = sub.add_parser(name, help=f"{name} of the standard rank-q bundle family")
        p.add_argument("--q", type=_positive_int, required=True)
        p.add_argument("--a", type=_integer, required=True)
        p.add_argument("--method", choices=("exact", "clutching"), default="exact")
        p.add_argument("--reversed-orientation", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("classify", help="canonical bundle class record")
    p.add_argument("--kind", choices=("vector", "matrix"), required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cocycle-check", help="verify the factor-of-automorphy identity")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a", type=_integer, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_cocycle_check)

    p = sub.add_parser("rep", help="clock/shift projective representation of theta",
                       description="The irreducible clock/shift representation of theta, "
                                   "of dimension q_theta, from the rows of T^-1 for its "
                                   f"normal form T; q_theta > {REP_DIM_LIMIT} is refused "
                                   "(exit 2).")
    p.add_argument("--theta", required=True)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("table", help="classification sweep over a for fixed q")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a-min", type=_integer, default=0)
    p.add_argument("--a-max", type=_integer, default=None)
    p.set_defaults(func=cmd_table)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
