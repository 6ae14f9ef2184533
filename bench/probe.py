"""Machine-speed probe, for steady timings on a shared host.

On a shared machine the speed of one CPU drifts by up to about 1.8x over
seconds to minutes, as other tenants load the same cores.  Pure-Python
and numpy work slow down together with a fixed pure-Python loop, so the
benchmark times that loop right before and right after each timed call,
in the same process, and reports the call's time scaled to the loop's
nominal time:

    normalized seconds = seconds * NOMINAL_S / mean(probe before, probe after)

At nominal speed the two agree.  The raw times are printed beside them.
bench/run.py replaces the probe time of a call by the median of it and
the probe times of its neighbouring calls, as one reading is noisy.
"""

from __future__ import annotations

import time

LOOPS = 500_000
# the loop's time on an uncontended 2.0 GHz Xeon vCPU under CPython 3.11
NOMINAL_S = 0.0375


def probe_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def run_probed(fn):
    """Call fn between two probes; returns (result, seconds, probe seconds)."""
    before = probe_s()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    after = probe_s()
    return result, seconds, (before + after) / 2


def normalize(seconds: float, probe: float) -> float:
    return seconds * NOMINAL_S / probe
