"""The feature store's knobs: :class:`StoreConfig`.

The hot-ring size of :class:`~repro.store.tiered.TieredFeatureStore`,
shared verbatim by the ``--store-hot-mb`` flag of the
``python -m repro.bench`` trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["StoreConfig"]


@dataclass
class StoreConfig:
    """Configuration shared by every feature store and CLI surface.

    The hot ring may be sized in rows (exact) or in MiB (``hot_mb``;
    resolved to rows once a space's row width is known — MiB wins when
    both are set).
    """

    #: hot-ring capacity in rows per space (each layer's embedding-cache
    #: size); ``<= 0`` disables the ring.
    hot_capacity: int = 20000
    #: hot-ring budget in MiB (overrides ``hot_capacity`` when set).
    hot_mb: Optional[float] = None

    def __post_init__(self):
        if self.hot_mb is not None and not (math.isfinite(self.hot_mb) and self.hot_mb > 0):
            raise ValueError(
                f"hot_mb={self.hot_mb} (--store-hot-mb) must be a positive "
                "finite number of MiB")

    def hot_rows(self, dim: Optional[int]) -> int:
        """Hot-ring rows per space, given its row width once known."""
        if self.hot_mb is None or dim is None or dim <= 0:
            return int(self.hot_capacity)
        return max(1, int(self.hot_mb * (1 << 20) / (4 * dim)))

    def with_overrides(self, **kwargs) -> "StoreConfig":
        """A copy with the given fields replaced (``None`` values kept)."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})
