"""Command-line front end.

Every subcommand delegates to the library operation of the same name.  The
text protocol is exact: integers and p/q literals only, ASCII only, and
identical invocations produce byte-identical output.  Floating point appears
nowhere except optional loop-sample CSV dumps.

Exit codes: 0 success, 1 negative decision, 2 usage or parse error (an
out-of-range option or an empty `table` range included), a file that cannot
be opened, or a numerical clutching run that failed to unwrap or to snap.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import autofactor, bundles, nctorus, projrep
from .cohomology import REVERSED, STANDARD, AltFormModQ, AltFormZ
from .textio import (
    MatrixFormatError,
    dump_matrix,
    dump_matrix_class,
    dump_vector_class,
    format_root,
    load_matrix,
    load_skew,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _records(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, human_lines, record_obj) -> None:
    if args.format == "records":
        print(_records(record_obj))
    else:
        for line in human_lines:
            print(line)


def _orientation(args):
    return REVERSED if getattr(args, "reversed_orientation", False) else STANDARD


def _rows(M) -> list[str]:
    return [" ".join(str(x) for x in row) for row in M.entries]


def cmd_q_theta(args) -> int:
    theta = load_skew(args.theta)
    q = nctorus.q_theta(theta)
    _emit(args, [str(q)], {"q_theta": q})
    return EXIT_OK


def cmd_normal_form(args) -> int:
    theta = load_skew(args.theta)
    nf = nctorus.normal_form(theta)
    rec = {
        "T": dump_matrix(nf.T),
        "blocks": [str(b) for b in nf.blocks],
        "free_rank": nf.free_rank,
    }
    human = [
        "blocks: " + (" ".join(str(b) for b in nf.blocks) if nf.blocks else "(none)"),
        f"free_rank: {nf.free_rank}",
        "T:",
    ] + _rows(nf.T)
    _emit(args, human, rec)
    return EXIT_OK


def cmd_iso(args) -> int:
    theta = load_skew(args.theta)
    theta2 = load_skew(args.theta_prime)
    p1 = nctorus.NCTorusParams(theta.n, theta, args.m)
    p2 = nctorus.NCTorusParams(theta2.n, theta2, args.m_prime)
    d = nctorus.iso_decide(p1, p2)
    if d.is_iso:
        rec = {"isomorphic": True, "T": dump_matrix(d.T), "shift": dump_matrix(d.shift)}
        human = ["isomorphic", "T:", *_rows(d.T), "shift:", *_rows(d.shift)]
        _emit(args, human, rec)
        return EXIT_OK
    _emit(args, ["not isomorphic"], {"isomorphic": False})
    return EXIT_NEGATIVE


def _dump_samples_csv(factor, samples, path) -> None:
    mats = autofactor.loop_matrices(factor, samples)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "row", "col", "re", "im"])
        q = factor.q
        for k in range(mats.shape[0]):
            t = k / samples
            for i in range(q):
                for j in range(q):
                    z = mats[k, i, j]
                    writer.writerow([repr(t), i, j, repr(z.real), repr(z.imag)])


def _clutching(args, method):
    """Run `method(factor, samples)` on the standard factor of (q, a),
    filling in the default sample count and writing the optional CSV dump;
    returns the value and the output header."""
    factor = autofactor.factor_from(args.q, args.a)
    if args.samples is None:
        args.samples = autofactor.default_samples(args.q, args.a)
    value = method(factor, args.samples)
    if args.dump_samples:
        _dump_samples_csv(factor, args.samples, args.dump_samples)
    return value, f"# method=clutching samples={args.samples}"


def cmd_twist(args) -> int:
    e = bundles.X_bundle(args.q, args.a)
    if args.method == "clutching":
        value, header = _clutching(args, autofactor.clutching_twist)
        _emit(args, [header, str(value)],
              {"twist": value, "method": "clutching", "samples": args.samples})
    else:
        value = bundles.twist(e, _orientation(args))
        _emit(args, [str(value)], {"twist": value, "method": "exact"})
    return EXIT_OK


def cmd_omega(args) -> int:
    if args.method == "clutching":
        value, header = _clutching(args, functools.partial(
            autofactor.clutching_omega, tol=float(args.tolerance)))
        _emit(args, [f"{header} tolerance={args.tolerance}", format_root(value)],
              {"omega": format_root(value), "method": "clutching",
               "samples": args.samples})
    else:
        a_cls = bundles.endo(bundles.X_bundle(args.q, args.a))
        value = bundles.omega(a_cls, _orientation(args))
        _emit(args, [format_root(value)],
              {"omega": format_root(value), "method": "exact"})
    return EXIT_OK


def cmd_classify(args) -> int:
    mat = load_matrix(args.form)
    if not mat.is_integral():
        raise MatrixFormatError("bundle class forms must have integer entries")
    try:
        if args.kind == "vector":
            cls = bundles.classify_projflat(args.n, args.q, AltFormZ(mat.to_int()))
            rec = dump_vector_class(cls)
            human = [f"vector class: n={cls.n} rank={cls.rank}", "c1:",
                     *_rows(cls.c1.mat)]
        else:
            beta = AltFormModQ(mat.to_int(), args.q)
            cls = bundles.MatrixBundleClass(args.n, args.q, beta)
            rec = dump_matrix_class(cls)
            human = [f"matrix class: n={cls.n} size={cls.size}",
                     f"beta (mod {args.q}):", *_rows(cls.beta.mat)]
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from exc
    _emit(args, human, rec)
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
    human = [f"violations: {len(violations)}/{args.trials}"]
    _emit(args, human, rec)
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_rep(args) -> int:
    theta = load_skew(args.theta)
    nf = nctorus.normal_form(theta)
    rep = projrep.heisenberg_rep(nf.block_form())
    rec = {
        "dim": rep.dim,
        "blocks": [str(b) for b in nf.blocks],
        "generators": [
            {"index": i, "perm": perm, "phases": phases}
            for i, perm, phases in rep.records()
        ],
    }
    human = [f"dim: {rep.dim}",
             "blocks: " + (" ".join(str(b) for b in nf.blocks) if nf.blocks else "(none)")]
    for i, perm, phases in rep.records():
        human.append(f"U{i}: perm={','.join(map(str, perm))} "
                     f"phases={','.join(phases)}")
    _emit(args, human, rec)
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
            "omega": format_root(bundles.omega(mat_cls)),
        })
    distinct = 0
    for i, ci in enumerate(classes):
        if all(not bundles.iso_matrix(ci, cj) for cj in classes[:i]):
            distinct += 1
    rec = {"q": q, "rows": rows, "distinct_matrix_classes": distinct,
           "total_rows": len(rows)}
    human = [f"q={q}  a={a_lo}..{a_hi}",
             "a\tc1(e1,e2)\ttwist\tbeta(e1,e2)\tomega"]
    for r in rows:
        human.append(f"{r['a']}\t{r['c1_pairing']}\t{r['twist']}"
                     f"\t{r['beta_pairing']}\t{r['omega']}")
    human.append(f"pairwise non-isomorphic matrix classes: {distinct}/{len(rows)}")
    _emit(args, human, rec)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> str:
    """A finite positive snap tolerance, kept as written for the header."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return text


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
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--m-prime", type=int, default=1)
    p.set_defaults(func=cmd_iso)

    for name, fn in (("twist", cmd_twist), ("omega", cmd_omega)):
        p = sub.add_parser(name, help=f"{name} of the standard rank-q bundle family")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--method", choices=("exact", "clutching"), default="exact")
        p.add_argument("--samples", type=int, default=None,
                       help="sample count for the clutching path")
        if name == "omega":
            p.add_argument("--tolerance", type=_tolerance, default="1e-06",
                           help="snap tolerance for the clutching path, in turns")
        p.add_argument("--dump-samples", default=None, metavar="PATH",
                       help="write the loop samples as CSV (t,row,col,re,im)")
        p.add_argument("--reversed-orientation", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("classify", help="canonical bundle class record")
    p.add_argument("--kind", choices=("vector", "matrix"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cocycle-check", help="verify the factor-of-automorphy identity")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cocycle_check)

    p = sub.add_parser("rep", help="clock/shift projective representation of theta")
    p.add_argument("--theta", required=True)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("table", help="classification sweep over a for fixed q")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a-min", type=int, default=0)
    p.add_argument("--a-max", type=int, default=None)
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
    except (ValueError, OSError,  # MatrixFormatError is a ValueError
            autofactor.SnapError, autofactor.UnwrapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
