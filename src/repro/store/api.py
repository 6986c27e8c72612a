"""The `FeatureStore` API: one interface over every feature/embedding cache.

Historically the codebase grew three divergent ways to cache and move
feature rows — ``TContext``'s per-layer embedding caches,
the ``op.cache()`` / ``op.preload()`` operators, and the raw
:class:`~repro.core.kernels.cache.NodeTimeCache` kernel — and every new
consumer (trainer, serving ladder, continual learner) re-wired them by
hand.  This module defines the one interface they all now route through:

* :class:`FeatureStore` — the protocol (``get`` / ``put`` / ``prefetch``
  / ``evict`` / ``stats``) any tiered row store implements.
* :class:`StoreConfig` — the knobs (hot capacity, prefetch depth),
  shared verbatim by the ``--store-hot-mb`` / ``--prefetch-depth`` CLI
  flags of every ``python -m repro.bench`` subcommand.
* :class:`TierStats` / :class:`StoreStats` — first-class accounting:
  bytes moved per tier and stall seconds paid vs saved by prefetch,
  surfaced through ``ctx.stats().store`` and the benchmark tables.

The concrete implementation is
:class:`~repro.store.tiered.TieredFeatureStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Protocol, runtime_checkable

import numpy as np


__all__ = ["StoreConfig", "TierStats", "StoreStats", "FeatureStore"]

#: accounted tiers: the hot ring, prefetch staging, and source reads.
TIERS = ("hot", "staging", "cold")


@dataclass
class StoreConfig:
    """Configuration shared by every tiered feature store and CLI surface.

    The hot tier may be sized in rows (exact) or in MiB (``hot_mb``;
    resolved to rows once a space's row width is known — MiB wins when
    both are set).
    """

    #: hot-tier capacity in rows per space (each layer's embedding-cache
    #: size); ``<= 0`` disables the hot tier.
    hot_capacity: int = 20000
    #: hot-tier budget in MiB (overrides ``hot_capacity`` when set).
    hot_mb: Optional[float] = None
    #: batches of sampler lookahead the prefetcher keeps in flight;
    #: ``0`` disables prefetching entirely.
    prefetch_depth: int = 1
    #: modeled compute seconds per consumed row — the overlap window a
    #: prefetched transfer can hide behind.
    compute_seconds_per_row: float = 2.0e-6

    def __post_init__(self):
        # The prefetch scheduler keeps exactly one batch in flight; depths
        # beyond 1 would be silently served as depth 1, so reject them
        # instead of quietly under-delivering.
        if self.prefetch_depth > 1:
            raise ValueError(
                f"prefetch_depth={self.prefetch_depth} is not supported "
                "yet: the prefetcher schedules at most one batch of "
                "lookahead, so depths > 1 would silently behave as 1. "
                "Use prefetch_depth=1 (or 0 to disable)."
            )

    def hot_rows(self, dim: Optional[int]) -> int:
        """Hot-tier rows per space, given its row width once known."""
        if self.hot_mb is None or dim is None or dim <= 0:
            return int(self.hot_capacity)
        return max(1, int(self.hot_mb * (1 << 20) / (4 * dim)))

    def with_overrides(self, **kwargs) -> "StoreConfig":
        """A copy with the given fields replaced (``None`` values kept)."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


@dataclass
class TierStats:
    """Row/byte accounting for one tier of the hierarchy."""

    hits: int = 0
    misses: int = 0
    #: bytes that landed in this tier (from a colder one, or fresh puts).
    bytes_in: int = 0
    #: bytes read out of this tier toward a hotter one / the consumer.
    bytes_out: int = 0
    #: resident entries displaced (dropped) from this tier.
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits, "misses": self.misses,
            "bytes_in": self.bytes_in, "bytes_out": self.bytes_out,
            "evictions": self.evictions,
        }


@dataclass
class StoreStats:
    """One snapshot of a feature store's accounting.

    ``stall_seconds`` is the simulated time consumers spent blocked on
    transfers; ``stall_saved_seconds`` is the transfer time the async
    prefetcher absorbed (the stall a no-prefetch store would have paid
    minus what was actually paid).  Both are first-class benchmark rows.
    """

    tiers: Dict[str, TierStats] = field(default_factory=dict)
    prefetch_issued: int = 0
    #: prefetched rows consumed after their transfer completed (stall 0).
    prefetch_hits: int = 0
    #: prefetched rows consumed before the transfer finished (partial stall).
    prefetch_late: int = 0
    #: prefetched rows dropped without ever being consumed.
    prefetch_unused: int = 0
    stall_seconds: float = 0.0
    stall_saved_seconds: float = 0.0

    @property
    def bytes_moved(self) -> int:
        """Total bytes moved between tiers (sum of per-tier inflow)."""
        return sum(t.bytes_in for t in self.tiers.values())

    @property
    def stall_recovered_fraction(self) -> float:
        """Fraction of would-be stall time the prefetcher recovered."""
        would_be = self.stall_seconds + self.stall_saved_seconds
        return self.stall_saved_seconds / would_be if would_be > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        flat: Dict[str, float] = {}
        for tier, t in self.tiers.items():
            for k, v in t.as_dict().items():
                flat[f"{tier}:{k}"] = v
        flat.update(
            prefetch_issued=self.prefetch_issued,
            prefetch_hits=self.prefetch_hits,
            prefetch_late=self.prefetch_late,
            prefetch_unused=self.prefetch_unused,
            stall_seconds=self.stall_seconds,
            stall_saved_seconds=self.stall_saved_seconds,
        )
        return flat


@runtime_checkable
class FeatureStore(Protocol):
    """The one interface every feature/embedding cache front-end uses.

    Implementations are keyed by *space* (a named row universe such as
    ``'nfeat'``, ``'mem'``, or ``'embed:0'``) and by ``(node, time)``
    within a space (``times=None`` means time-invariant node rows).
    """

    def get(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
            space: str = "nfeat") -> np.ndarray:
        """Resolve rows through the tiers, paying (and recording) stalls."""
        ...  # pragma: no cover - protocol

    def put(self, nodes: np.ndarray, times: Optional[np.ndarray],
            rows: np.ndarray, space: str = "nfeat") -> None:
        """Insert rows into the hot tier (its evictions are dropped)."""
        ...  # pragma: no cover - protocol

    def prefetch(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
                 space: str = "nfeat") -> int:
        """Schedule async source->staging transfers; returns rows issued."""
        ...  # pragma: no cover - protocol

    def evict(self, space: Optional[str] = None) -> None:
        """Drop cached tiers (source authorities survive)."""
        ...  # pragma: no cover - protocol

    def stats(self) -> StoreStats:
        """Snapshot of per-tier bytes moved and prefetch effectiveness."""
        ...  # pragma: no cover - protocol
