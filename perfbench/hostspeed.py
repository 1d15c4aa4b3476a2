"""Host speed reference, so that timings on a shared host can be compared.

On a shared VM the speed of the same pure-Python code drifts by a third and
more over tens of seconds, and CPU time drifts with wall time, so it is not
stolen time.  A run therefore times a fixed reference task every
`EVERY_S` seconds, between requests, and scales each request's latency by
`NOMINAL_S / t_ref`, where `t_ref` is the median reference time of the
`WINDOW` samples on each side of the request.  Scaled times read as
milliseconds on a host where the reference task takes `NOMINAL_S`.

The reference task uses no flattori code, so a change to the library moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# the reference task's time at nominal speed: the faster state of a
# 2-vCPU shared VM
NOMINAL_S = 0.010
EVERY_S = 0.25
# samples on each side of a request that set its scale: about 5 s, which
# follows the drift but not the jitter of single samples
WINDOW = 20
# samples that scale a set-up time
SETUP_SAMPLES = 12


def reference_task():
    """Fixed exact arithmetic in plain Python, the operations the library is
    made of: rationals, big integers, lists and a dict."""
    acc = Fraction(0)
    table = {}
    rows = []
    for i in range(1, 450):
        acc += Fraction(i % 7 - 3, i)
        acc = acc.limit_denominator(10 ** 6)
        big = (i * 2654435761) ** 3 % (10 ** 40 + 7)
        table[big % 101] = table.get(big % 101, 0) + big
        rows.append([big % (j + 2) for j in range(8)])
    rows.sort()
    return acc, len(table), rows[0]


def time_reference() -> float:
    """Seconds one reference task takes now, with the collector held off so
    that heap size does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples taken during a run, and the scale they give."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._due = 0.0

    def sample(self):
        t = time.perf_counter()
        dt = time_reference()
        self.times.append(t + dt / 2)
        self.durations.append(dt)
        self._due = t + dt + EVERY_S

    def maybe_sample(self):
        """Take a sample if `EVERY_S` seconds have passed since the last."""
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor that brings a time measured around `t` to nominal speed."""
        i = bisect.bisect(self.times, t)
        near = self.durations[max(0, i - WINDOW):i + WINDOW]
        return NOMINAL_S / statistics.median(near)

    def scale_now(self) -> float:
        """Scale for a time measured just before this call."""
        for _ in range(SETUP_SAMPLES):
            self.sample()
        return NOMINAL_S / statistics.median(self.durations[-SETUP_SAMPLES:])
