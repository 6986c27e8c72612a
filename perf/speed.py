"""The host's speed, measured between timing windows, and how it is divided out.

This box runs in CPU speed states that differ by up to 2x and last from a
second to minutes (no steal time is reported: it is the host, and process
CPU time slows with it).  The same commit then reads 30 % apart in two runs
ten minutes apart, and no statistic taken *inside* a run removes a state
that lasts the whole run.  So every timing window is bracketed by a fixed
**reference kernel** — interpreter work, small-array numpy calls, a gather,
a sort and a matmul, the mix the program itself is made of — and reported
seconds are

    seconds_at_reference_speed = wall_seconds × REFERENCE_S / kernel_seconds_nearby

where ``kernel_seconds_nearby`` is the mean of the two kernel timings that
bracket the window.  ``REFERENCE_S`` is a constant of the benchmark (what
the kernel took between windows on the machine the benchmark was defined
on, in its usual state), so figures read like wall-clock figures of that
machine; only ratios between two commits carry meaning anyway.  Both factors are wall-clock measurements
of this process on this CPU — nothing is taken from a cost model.

What this cannot correct: time that does not scale with CPU speed (an
``fsync`` waiting for the disk) is rescaled along with the rest.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

__all__ = ["REFERENCE_S", "CALIB_LAYER", "SpeedMeter", "reference_kernel", "warm_up", "nearby",
           "factor"]

#: seconds the reference kernel takes at the speed all figures are quoted at.
REFERENCE_S = 1.5e-3
#: span name of a kernel timing in a traced round (not a layer of the program).
CALIB_LAYER = "perf.calib"
_A = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
_TABLE = np.linspace(0.0, 1.0, 2000 * 32, dtype=np.float32).reshape(2000, 32)
_IDX = (np.arange(500) * 7919) % 2000


def reference_kernel() -> None:
    """Fixed work of about ``REFERENCE_S``: bytecode, dict stores, small numpy calls.

    Everything stays in cache on purpose.  A variant that added scattered
    reads from a 16 MiB table took 2.5x longer between windows than alone —
    it measured what the program had left in the cache, not the host — and
    tracked worse on every workload but TGN.
    """
    acc, seen = 0, {}
    for i in range(6000):
        acc += i * i
        seen[i & 63] = acc
    for _ in range(12):
        rows = _TABLE[_IDX]
        np.unique(_IDX)
        (rows * 0.5 + 1.0).sum(axis=0)
        np.exp(_A @ _A * 1e-3)


class SpeedMeter:
    """Times the reference kernel on demand; keeps every reading.

    One run per reading: on recordings of 140-180 rounds per workload the
    first run after a window tracked that window as well as, or better than,
    the fastest, mean or median of up to five.
    """

    def __init__(self):
        self.readings: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.readings.append(time.perf_counter() - start)

    def take(self) -> List[float]:
        """Hand over the readings since the last call."""
        out, self.readings = self.readings, []
        return out


def warm_up() -> None:
    """Run the kernel until its own temporaries are faulted in (once per process)."""
    for _ in range(20):
        reference_kernel()


def nearby(readings: Sequence[float]) -> np.ndarray:
    """Kernel seconds during each window, from the ``W + 1`` readings around ``W`` windows.

    Reading *k* is taken just before window *k*, the last one after the final
    window; window *k* gets the mean of the two that bracket it.  (Pooling
    more neighbours tracked no better: a window's time follows the speed
    while it ran, and a slow burst covers few windows.)
    """
    r = np.asarray(readings, dtype=np.float64)
    return (r[:-1] + r[1:]) / 2.0


def factor(readings: Sequence[float]) -> float:
    """One scale for a whole stretch of work: ``REFERENCE_S`` / median reading."""
    return REFERENCE_S / float(np.median(readings))
