"""flattori benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload iso_walk --seed 1 --seconds 20 --trace 0

Runs whole cycles of the workload's request stream for about `--seconds`,
checks every answer against the benchmark's own keys, and prints one JSON
object as the last line of standard output.  Times, and the `--seconds` a
run measures, are scaled to nominal host speed by an interleaved reference
task (see `hostspeed`).  `--trace 0` reports the end-to-end metrics;
`--trace 1` runs a fixed, seed-determined set of cycles once untraced and
once under the per-module tracer and reports the per-layer metrics.
Human-readable detail goes to stderr.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
MIN_REQUESTS = 100
# traced runs repeat a fixed number of cycles, so their counts repeat exactly
TRACE_CYCLES = {"iso_walk": 1, "invariants": 12, "reps": 1, "factors": 8}


class RequestTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RequestTimeout()


def setup(workload: str, seed: int):
    """Import flattori, build the first cycle and run the warm-up requests.
    Returns (workload, first cycle)."""
    if not (ROOT / "src" / "flattori" / "__init__.py").is_file():
        raise SystemExit(f"error: flattori sources not found under {ROOT / 'src'}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    wl = workloads.WORKLOADS[workload]
    for req in wl.warmup(seed):
        if req.prepare:
            req.prepare()
        err = req.check(req.call())
        if err:
            raise AssertionError(f"warm-up answer rejected: {err}")
    return wl, wl.cycle(seed, 0)


class Loop:
    """Closed-loop client: runs requests one after another, each under the
    workload's time limit, and records start, latency and outcome per
    request.  Between requests it samples the host speed."""

    def __init__(self, limit_s: float, wrap=None):
        self.limit_s = limit_s
        self.wrap = wrap
        self.speed = HostSpeed()
        self.starts = []
        self.latencies = []
        self.failed = 0
        self.wrong = []
        self.timeouts = {}
        self.kinds = {}

    def run(self, req) -> float:
        if req.prepare:
            req.prepare()
        self.speed.maybe_sample()
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        t0 = time.perf_counter()
        try:
            try:
                result = self.wrap(req.call) if self.wrap else req.call()
            finally:
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            self.timeouts[req.kind] = self.timeouts.get(req.kind, 0) + 1
            err = "timeout"
        except Exception as exc:  # a raising request is a failed, wrong answer
            err = f"raised {type(exc).__name__}: {exc}"
            self.wrong.append((req.kind, err))
        else:
            try:
                err = req.check(result)
            except Exception as exc:  # an answer the key cannot read is wrong
                err = f"unreadable answer: {type(exc).__name__}: {exc}"
            if err:
                self.wrong.append((req.kind, err))
        self.kinds[req.kind] = self.kinds.get(req.kind, 0) + 1
        self.starts.append(t0)
        self.latencies.append(dt)
        self.failed += err is not None

    def scaled(self):
        """Latencies scaled to nominal host speed at each request's midpoint."""
        return [dt * self.speed.scale(t + dt / 2)
                for t, dt in zip(self.starts, self.latencies)]


def run_cycles(loop, cycles):
    """Run the given cycles; returns per cycle (completed, first request
    index, end index).  The host speed is sampled once more at the end, so
    that the last requests have samples on both sides."""
    out = []
    for reqs in cycles:
        gc.collect()  # each cycle starts from the same collector state
        failed0, first = loop.failed, len(loop.latencies)
        for req in reqs:
            loop.run(req)
        out.append((len(reqs) - (loop.failed - failed0), first, len(loop.latencies)))
    loop.speed.sample()
    return out


def timed_run(wl, seed, first, seconds):
    """Whole cycles until `seconds` at nominal host speed and MIN_REQUESTS
    requests are reached; the last cycle is skipped when less than half a
    mean cycle of time remains.  Counting nominal rather than wall seconds
    makes the number of cycles independent of the host's speed: a reps
    cycle took 8-15 s of wall time, so one run held one cycle and the next
    two, and an iso_walk cycle 18-36 s."""
    loop = Loop(wl.limit_s)
    per_cycle = []
    nominal = 0.0
    index, reqs = 0, first
    while True:
        t0 = time.perf_counter()
        per_cycle += run_cycles(loop, [reqs])
        t1 = time.perf_counter()
        nominal += (t1 - t0) * loop.speed.scale((t0 + t1) / 2)
        if (nominal * (1 + 1 / (2 * len(per_cycle))) >= seconds
                and len(loop.latencies) >= MIN_REQUESTS):
            return loop, per_cycle
        index += 1
        reqs = wl.cycle(seed, index)


def percentile_p90(values):
    """Nearest-rank 90th percentile; needs at least ten samples beyond it."""
    s = sorted(values)
    k = math.ceil(0.9 * len(s))
    if len(s) - k < 10:
        raise ValueError("p90 needs at least 100 samples")
    return s[k - 1]


def rps(per_cycle, latencies):
    """Median over cycles of completed requests per second of service time."""
    return statistics.median(done / sum(latencies[i:j]) for done, i, j in per_cycle)


def total_rps(per_cycle, latencies):
    """Completed requests per second of service time over all cycles."""
    return sum(done for done, _, _ in per_cycle) / sum(latencies)


def probe_setups(args, n):
    """Scaled setup time of `n` fresh interpreters (the import cannot repeat
    in one)."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def report_loop(name, loop, wl):
    scales = [loop.speed.scale(t) for t in loop.starts] or [1.0]
    print(f"[{name}] requests={len(loop.latencies)} failed={loop.failed} "
          f"wrong={len(loop.wrong)} timeouts={loop.timeouts} "
          f"(limit {wl.limit_s:g} s, unscaled)", file=sys.stderr)
    print(f"  host speed scale: median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}-{max(scales):.3f}; "
          f"unscaled p50 {1000 * statistics.median(loop.latencies):.3f} ms",
          file=sys.stderr)
    for kind, n in sorted(loop.kinds.items()):
        over = loop.timeouts.get(kind, 0)
        if over:
            print(f"  {kind}: {over} of {n} over the limit ({100 * over / n:.1f}%)",
                  file=sys.stderr)
    for kind, err in loop.wrong[:10]:
        print(f"  wrong answer [{kind}]: {err}", file=sys.stderr)


END_TO_END = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "success_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(args, wl, first, setup_own):
    loop, per_cycle = timed_run(wl, args.seed, first, args.seconds)
    report_loop(args.workload, loop, wl)
    setups = [setup_own] + probe_setups(args, SETUP_PROBES)
    latencies = loop.scaled()
    n = len(latencies)
    values = {
        "throughput_rps": rps(per_cycle, latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile_p90(latencies),
        "success_frac": (n - loop.failed) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return loop, {k: (values[k], u) for k, u in END_TO_END.items()}


# traced functions reported by name, each with its call count and self time
LAYER_FUNCTIONS = [
    "nctorus.iso_decide", "nctorus.q_theta", "nctorus.normal_form", "nctorus.bundle_of",
    "projrep.radical",
    "exact_linalg.smith_normal_form", "exact_linalg.symplectic_normal_form",
    "exact_linalg.SkewRatForm.congruence", "exact_linalg.lift_unimodular_mod",
    "exact_linalg.inverse_mod",
    "cyclotomic.sparse_rref", "cyclotomic.CycElt.__mul__", "cyclotomic.CycElt.inverse",
    "projrep.commutant_dim", "projrep.intertwiner", "projrep.heisenberg_rep",
    "projrep.ProjectiveRep.__init__",
    "autofactor.GenPermPhaseMatrix.__matmul__", "autofactor.GenPermPhaseMatrix.__pow__",
    "autofactor.check_cocycle", "autofactor.clutching_omega", "autofactor.clutching_twist",
    "autofactor.loop_matrices",
    "cli.run", "cli.build_parser", "textio.load_skew", "textio.dump_matrix",
]


def layer_units():
    """Unit of every per-layer metric, in report order."""
    from tracing import MODULES
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    units.update({"nctorus.normal_form.cert_bits_max": "bits", "trace.requests": "count",
                  "trace.root_s": "s", "trace_overhead_frac": "frac"})
    return units


def per_layer(args, wl, first):
    from tracing import Tracer

    cycles = [first] + [wl.cycle(args.seed, i) for i in range(1, TRACE_CYCLES[args.workload])]
    plain = Loop(wl.limit_s)
    untraced = run_cycles(plain, cycles)
    report_loop(f"{args.workload} untraced", plain, wl)
    # fresh request objects: reps requests carry state from their first run
    cycles = [wl.cycle(args.seed, i) for i in range(TRACE_CYCLES[args.workload])]
    tracer = Tracer()
    traced = Loop(wl.limit_s, wrap=tracer.root)
    with tracer:
        timed = run_cycles(traced, cycles)
    report_loop(f"{args.workload} traced", traced, wl)
    traced.wrong += plain.wrong

    untraced_rps = total_rps(untraced, plain.scaled())
    traced_rps = total_rps(timed, traced.scaled())
    mod_self = tracer.module_self_s()
    values = {"nctorus.normal_form.cert_bits_max": tracer.cert_bits_max,
              "trace.requests": tracer.roots, "trace.root_s": tracer.root_s,
              "trace_overhead_frac": 1 - traced_rps / untraced_rps}
    metrics = {}
    for name, unit in layer_units().items():
        base, _, field = name.rpartition(".")
        if name in values:
            v = values[name]
        elif base in mod_self:
            v = mod_self[base]
        elif field == "calls":
            v = tracer.calls.get(base, 0)
        else:
            v = tracer.self_s.get(base, 0.0)
        metrics[name] = (v, unit)

    total = tracer.root_s or 1.0
    shares = sorted(((s, m) for m, s in mod_self.items()), reverse=True)
    shares.append((tracer.self_s.get("request", 0.0), "(benchmark glue)"))
    print("self time by module: " + ", ".join(f"{m} {100 * s / total:.1f}%"
                                               for s, m in shares), file=sys.stderr)
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:8]
    print("top self time: " + ", ".join(f"{n} {s:.3f}s" for n, s in top), file=sys.stderr)
    return traced, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("iso_walk", "invariants", "reps", "factors"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the setup time in seconds")
    args = p.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    wl, first = setup(args.workload, args.seed)
    setup_own = time.perf_counter() - _T0
    setup_own *= HostSpeed().scale_now()
    if args.setup_probe:
        print(repr(setup_own))
        return 0

    if args.trace:
        loop, metrics = per_layer(args, wl, first)
    else:
        loop, metrics = end_to_end(args, wl, first, setup_own)
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
