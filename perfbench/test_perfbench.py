"""Self-tests of the benchmark's answer keys, generators and tracer.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import keys  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _matrix(upper, ell):
    a = [[0] * 4 for _ in range(4)]
    for (i, j), x in zip(PAIRS, upper):
        a[i][j], a[j][i] = x % ell, -x % ell
    return a


def _upper(a, ell):
    return tuple(a[i][j] % ell for i, j in PAIRS)


def _neighbours(a, ell):
    """Congruences by the elementary matrices E_ij(+-1) and diag(-1, 1, 1, 1)."""
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            for c in (1, -1):
                b = [row[:] for row in a]
                b[i] = [x + c * y for x, y in zip(b[i], b[j])]
                for row in b:
                    row[i] += c * row[j]
                yield b
    b = [row[:] for row in a]
    b[0] = [-x for x in b[0]]
    for row in b:
        row[0] = -row[0]
    yield b


def _orbits(ell):
    """Orbit label of every nondegenerate alternating 4 x 4 form mod ell,
    by exhaustive breadth-first enumeration."""
    states = [u for u in product(range(ell), repeat=6)
              if keys.pfaffian4(_matrix(u, ell)) % ell]
    label = {}
    for start in states:
        if start in label:
            continue
        label[start] = start
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for b in _neighbours(_matrix(u, ell), ell):
                    v = _upper(b, ell)
                    if v not in label:
                        label[v] = start
                        nxt.append(v)
            frontier = nxt
    return label


def test_pfaffian_rule_matches_exhaustive_orbits():
    import random
    rng = random.Random(5)
    for ell, n_orbits in ((3, 1), (5, 2)):
        label = _orbits(ell)
        assert len(set(label.values())) == n_orbits
        states = list(label)
        for _ in range(3000):
            u, v = rng.choice(states), rng.choice(states)
            same = label[u] == label[v]
            assert keys.pfaffian_rule_iso(_matrix(u, ell), _matrix(v, ell), ell) == same


def _requests(name, seed):
    wl = workloads.WORKLOADS[name]
    reqs = wl.warmup(seed) + wl.cycle(seed, 0) + wl.cycle(seed, 1)
    return [(r.kind, r.data) for r in reqs]


def test_generators_are_seeded():
    for name in workloads.WORKLOADS:
        first = _requests(name, 7)
        assert first == _requests(name, 7), name
        assert first != _requests(name, 8), name


def test_q_theta_key_matches_block_construction():
    import random
    rng = random.Random(3)
    for n in range(2, 7):
        for _ in range(5):
            dens = workloads._chain(rng.randint(1, n // 2), 30, rng)
            theta = workloads._transport(keys.block_form(n, workloads._blocks(dens, rng)),
                                         rng, 4)
            expect = 1
            for d in dens:
                expect *= d
            assert keys.q_theta(theta) == expect


def test_certificate_key_rejects_a_wrong_certificate():
    theta = [[Fraction(0), Fraction(1, 3)], [Fraction(-1, 3), Fraction(0)]]
    theta2 = [[Fraction(0), Fraction(-1, 3)], [Fraction(1, 3), Fraction(0)]]
    assert keys.certificate_error(theta, theta2, [[0, 1], [1, 0]]) is None
    assert keys.certificate_error(theta, theta2, [[1, 0], [0, 1]]) is not None
    assert keys.certificate_error(theta, theta2, [[2, 1], [1, 1]]) is not None


def test_tracer_sees_cross_module_calls_and_self_times_add_up():
    from flattori import exact_linalg, nctorus
    from flattori.exact_linalg import SkewRatForm

    theta = [[Fraction(0), Fraction(1, 4), Fraction(3, 4)],
             [Fraction(-1, 4), Fraction(0), Fraction(1, 2)],
             [Fraction(-3, 4), Fraction(-1, 2), Fraction(0)]]
    t = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    theta2 = keys.congruence(t, theta)
    p1 = nctorus.NCTorusParams(3, SkewRatForm(theta))
    p2 = nctorus.NCTorusParams(3, SkewRatForm(theta2))
    original = nctorus.smith_normal_form
    tracer = Tracer()
    with tracer:
        assert nctorus.smith_normal_form is not original
        d = tracer.root(lambda: nctorus.iso_decide(p1, p2))
        tracer.root(lambda: nctorus.iso_decide(p1, p1))
    assert nctorus.smith_normal_form is original
    assert exact_linalg.smith_normal_form is original
    assert d.is_iso
    for child in ("smith_normal_form", "symplectic_normal_form", "lift_unimodular_mod",
                  "inverse_mod"):
        assert tracer.calls.get(f"exact_linalg.{child}", 0) > 0, child
    assert tracer.calls["nctorus.iso_decide"] == 2
    assert tracer.roots == 2
    total = sum(tracer.self_s.values())
    assert abs(total - tracer.root_s) <= 1e-9 + 1e-9 * tracer.root_s


def test_host_speed_scale_follows_nearby_samples():
    from hostspeed import NOMINAL_S, WINDOW, HostSpeed

    speed = HostSpeed()
    n = 4 * WINDOW
    speed.times = [float(i) for i in range(n)]
    speed.durations = [NOMINAL_S] * (n // 2) + [2 * NOMINAL_S] * (n // 2)
    assert speed.scale(5.5) == 1.0
    assert speed.scale(n - 5.5) == 0.5
    # at the step, WINDOW samples on each side: the median lies between
    assert abs(speed.scale(n / 2 - 0.5) - 1 / 1.5) < 1e-12
    # before the first and after the last sample, the nearest ones count
    assert speed.scale(-1.0) == 1.0
    assert speed.scale(99.0) == 0.5


def test_benchmark_json_lists_the_reported_metrics():
    import json
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
