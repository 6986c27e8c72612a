"""Unified instrumentation snapshot for :class:`~repro.core.context.TContext`.

Everything the context measures is read through ``ctx.stats()``
(returning a frozen :class:`ContextStats` snapshot of everything in one
read) and cleared through ``ctx.reset_stats()``.

Counters live in one table, ``TContext.counters``.  A serving deployment's
components (admission, ingest, commit, WAL, RPC, supervisor, replica
groups, replicas, scrubber) are each handed that table where they are
built and :func:`declare` their keys in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["CacheLayerStats", "PinnedPoolStats", "LatencyStats", "ContextStats",
           "declare"]


def declare(table: Optional[Dict[str, float]], *keys: str) -> Dict[str, float]:
    """*table* (a fresh one when None) with each of *keys* present, 0 if new:
    a counter that never fired reads 0, and ``table[key] += n`` on a
    misspelt key raises instead of starting a new counter."""
    table = {} if table is None else table
    for key in keys:
        table.setdefault(key, 0)
    return table


@dataclass(frozen=True)
class CacheLayerStats:
    """Hit statistics of one per-layer embedding cache (its hot tier)."""

    hits: int
    lookups: int
    entries: int
    #: resident entries displaced (dropped) from the hot ring.
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class PinnedPoolStats:
    """Buffer-reuse statistics of the pinned staging pool."""

    hits: int
    misses: int


@dataclass(frozen=True)
class LatencyStats:
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
    """One coherent snapshot of a context's instrumentation.

    Produced by :meth:`TContext.stats`; values are copies, so a snapshot
    taken before an epoch can be compared against one taken after.
    """

    #: the counter table: operator counters (e.g. ``dedup_rows_in``, see
    #: ``ctx.count()``) and every serving component's counters.
    counters: Dict[str, float] = field(default_factory=dict)
    #: per-layer embedding-cache statistics.
    cache: Dict[int, CacheLayerStats] = field(default_factory=dict)
    #: pinned staging-pool statistics.
    pinned: PinnedPoolStats = PinnedPoolStats(0, 0)
    #: accumulated wall-clock seconds per kernel (sample, cache_lookup, ...).
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    #: kernels downgraded to fallback paths (site -> reason); see
    #: :meth:`TContext.record_kernel_fault`.
    degraded: Dict[str, str] = field(default_factory=dict)
    #: transient kernel faults recorded per site (the ``kernel_faults:*``
    #: counters).
    kernel_faults: Dict[str, int] = field(default_factory=dict)
    #: per-request serving latency distribution; None before any request.
    latency: Optional[LatencyStats] = None
    #: tiered feature-store snapshot (bytes moved per tier, prefetch
    #: effectiveness, stall seconds); a
    #: :class:`repro.store.api.StoreStats`, None when no store is wired.
    store: Optional[object] = None

    @property
    def cache_hits(self) -> int:
        return sum(c.hits for c in self.cache.values())

    @property
    def cache_lookups(self) -> int:
        return sum(c.lookups for c in self.cache.values())

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Aggregate hit rate over all layers; None before any lookup."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else None

    @property
    def dedup_reduction(self) -> Optional[float]:
        """Fraction of destination rows removed by dedup; None before use."""
        rows_in = self.counters.get("dedup_rows_in", 0)
        if not rows_in:
            return None
        return 1.0 - self.counters.get("dedup_rows_out", 0) / rows_in

    def as_dict(self) -> Dict[str, float]:
        """Flatten to the historical ``op_stats()`` mapping.

        Raw counters plus the derived ``dedup_reduction`` /
        ``cache_hit_rate`` ratios (present only once meaningful) — the
        numbers §5.2's discussion attributes speedups to.
        """
        flat: Dict[str, float] = dict(self.counters)
        if self.dedup_reduction is not None:
            flat["dedup_reduction"] = self.dedup_reduction
        if self.cache_hit_rate is not None:
            flat["cache_hit_rate"] = self.cache_hit_rate
        for site in self.degraded:
            flat[f"degraded:{site}"] = 1.0
        if self.latency is not None:
            flat["latency_p50"] = self.latency.p50
            flat["latency_p99"] = self.latency.p99
        if self.store is not None:
            for key, value in self.store.as_dict().items():
                flat[f"store:{key}"] = value
        return flat
