"""The feature store's knobs: :class:`StoreConfig`.

The hot capacity and prefetch depth of
:class:`~repro.store.tiered.TieredFeatureStore`, shared verbatim by the
``--store-hot-mb`` / ``--prefetch-depth`` CLI flags of every
``python -m repro.bench`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["StoreConfig"]

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
