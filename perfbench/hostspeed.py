"""Host-speed correction for the benchmark's time metrics.

On a shared host the speed of one vCPU drifts by ±20 % over minutes,
and every kind of work (pure Python, numpy, memory-bound) drifts with
it.  The worker therefore times a fixed pure-Python reference loop next
to every measurement, and each time metric is the wall time scaled to
the speed at which the reference takes ``REFERENCE_NOMINAL_S``:

    scaled = wall * REFERENCE_NOMINAL_S / reference

The reference is the benchmark's own code, so no change to ``satset``
moves it; the raw wall times are reported alongside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_ITERATIONS = 400_000
# About the median reference time on the 2-vCPU Xeon VM the benchmark was
# defined on; it fixes the scale, so it must never change.
REFERENCE_NOMINAL_S = 0.025


def reference_pass_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i
    return time.perf_counter() - t0


def reference_s(passes: int) -> float:
    """Median of ``passes`` reference passes; one pass alone varies by ~10 %."""
    return statistics.median([reference_pass_s() for _ in range(passes)])


def scale(wall: float, reference: float) -> float:
    return wall * REFERENCE_NOMINAL_S / reference


def scaled_op_times(times: list[float], refs: list[float]) -> list[float]:
    """Op i is scaled by the mean of the references run just before and
    just after it, so ``refs`` holds one more entry than ``times``."""
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference before each op and one after the last")
    return [scale(t, (refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]


def speed_factor(refs: list[float]) -> float:
    """Host speed against nominal: above 1 when the host is faster."""
    return REFERENCE_NOMINAL_S / statistics.median(refs)
