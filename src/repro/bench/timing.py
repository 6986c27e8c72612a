"""Per-operation timing breakdown (the instrumentation behind Figure 7).

A :class:`Breakdown` accumulates wall-clock seconds per named operation
(batch preparation, sampling, time encoding, attention, backward, ...).
Model code does not need to know about it: the TGAT breakdown benchmark
wraps the relevant calls via :meth:`Breakdown.section` context managers.
"""

from __future__ import annotations

import contextlib
import time
from collections import OrderedDict
from typing import Dict, Iterator, Optional

__all__ = ["Breakdown", "Timer"]


class Timer:
    """Simple start/stop wall-clock timer."""

    def __init__(self):
        self.elapsed = 0.0
        self._start: Optional[float] = None

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("timer was not started")
        delta = time.perf_counter() - self._start
        self.elapsed += delta
        self._start = None
        return delta

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None


class Breakdown:
    """Accumulate elapsed seconds per named section."""

    def __init__(self):
        self._timers: "OrderedDict[str, Timer]" = OrderedDict()

    @contextlib.contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time the enclosed block under *name* (accumulating)."""
        timer = self._timers.setdefault(name, Timer())
        timer.start()
        try:
            yield
        finally:
            timer.stop()

    def add(self, name: str, seconds: float) -> None:
        self._timers.setdefault(name, Timer()).elapsed += seconds

    def merge(self, totals: Dict[str, float], prefix: str = "") -> None:
        """Fold a name→seconds mapping into the breakdown.

        The natural source is :meth:`TContext.stats`'s ``kernel:<name>``
        counters, whose names carry the ``"kernel:"`` prefix.  Note that
        kernel timings are typically *nested inside* coarser sections
        (e.g. ``kernel:sample`` inside ``sample``), so callers computing
        grand totals should exclude prefixed entries.
        """
        for name, seconds in totals.items():
            self.add(prefix + name, seconds)

    def totals(self) -> Dict[str, float]:
        """Mapping of section name to accumulated seconds."""
        return {name: timer.elapsed for name, timer in self._timers.items()}

    def total(self) -> float:
        return sum(t.elapsed for t in self._timers.values())

    def reset(self) -> None:
        self._timers.clear()

    def format_table(self, title: str = "") -> str:
        """Human-readable table of sections sorted by cost."""
        rows = sorted(self.totals().items(), key=lambda kv: -kv[1])
        width = max((len(name) for name, _ in rows), default=10)
        lines = []
        if title:
            lines.append(title)
        for name, seconds in rows:
            lines.append(f"  {name:<{width}}  {seconds:8.3f} s")
        lines.append(f"  {'total':<{width}}  {self.total():8.3f} s")
        return "\n".join(lines)
