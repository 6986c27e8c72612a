"""The one simulated clock of every serving deployment (runtime and cluster).

Every latency-sensitive decision in :mod:`repro.serve` — token-bucket
refill, deadline budgets, the degradation ladder's cost comparisons, and
the reported p50/p99 latencies — reads one logical clock instead of
``time.perf_counter()``.  That keeps replay runs deterministic (the same
stream and configuration produce bit-identical decisions on any machine)
and lets the benchmark suite model 16x offered load without actually
waiting for it.

This module imports nothing from ``repro``, so any layer can use it
without an import cycle; ``repro.serve`` re-exports :class:`SimClock`.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotone simulated clock measured in seconds, starting at 0."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by *seconds*; returns the new reading."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds} (negative)")
        self._now += float(seconds)
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to *t* (no-op if *t* is in the past)."""
        if t > self._now:
            self._now = float(t)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6g})"
