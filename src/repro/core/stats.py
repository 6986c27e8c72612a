"""The counter table and the one snapshot of it, ``TContext.stats()``.

Counters live in one table, ``TContext.counters``: operator counters
(``dedup_rows_in`` ...), pinned-pool reuse (``pinned:*``), kernel faults,
and every counter of a serving deployment.  The table holds counts; wall
seconds are :mod:`repro.spans` spans.
Each component is handed the table where it is built and
:func:`declare`\\ s its keys in it.  ``ctx.stats()`` returns a frozen
:class:`ContextStats`: a copy of the table plus the keys read at read
time (each layer's memo ring, ``embed:<layer>:*``, and degraded
kernels) and the request-latency percentiles; derived ratios are computed
from it by :func:`ratios`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

__all__ = ["Latency", "ContextStats", "declare", "ratios"]


def declare(table: Optional[Dict[str, float]], *keys: str) -> Dict[str, float]:
    """*table* (a fresh one when None) with each of *keys* present, 0 if new:
    a counter that never fired reads 0, and ``table[key] += n`` on a
    misspelt key raises instead of starting a new counter."""
    table = {} if table is None else table
    for key in keys:
        table.setdefault(key, 0)
    return table


class Latency(NamedTuple):
    """Request-latency distribution recorded via ``ctx.record_latency``.

    Percentiles are computed over a bounded reservoir of the most recent
    samples (the serving runtime's per-request end-to-end latencies on
    the simulated clock); ``count`` is the total ever recorded.
    """

    count: int
    p50: float
    p99: float
    mean: float


@dataclass(frozen=True)
class ContextStats:
    """One snapshot of a context's instrumentation (values are copies)."""

    #: the counter table plus its read-time keys.
    counters: Dict[str, float]
    #: per-request serving latency distribution; None before any request.
    latency: Optional[Latency] = None


def ratios(counters: Dict[str, float]) -> Dict[str, float]:
    """The derived ratios of a snapshot's counters, each present once
    meaningful: ``dedup_reduction`` (fraction of destination rows dedup
    removed) and ``cache_hit_rate`` (over every layer's embedding cache)."""
    out: Dict[str, float] = {}
    rows_in = counters.get("dedup_rows_in", 0)
    if rows_in:
        out["dedup_reduction"] = 1.0 - counters.get("dedup_rows_out", 0) / rows_in

    def total(suffix: str) -> int:
        return sum(v for k, v in counters.items()
                   if k.startswith("embed:") and k.endswith(suffix))

    lookups = total(":lookups")
    if lookups:
        out["cache_hit_rate"] = total(":hits") / lookups
    return out
