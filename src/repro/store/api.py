"""The memo cache's one knob: :class:`StoreConfig`.

The size of each layer's ring in ``TContext.embed_cache``, shared
verbatim by the ``--store-hot-mb`` flag of the ``python -m repro.bench``
trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["StoreConfig"]


@dataclass
class StoreConfig:
    """The size of each layer's memo ring.

    A ring may be sized in rows (exact) or in MiB (``hot_mb``; resolved
    to rows once the layer's row width is known — MiB wins when both are
    set).
    """

    #: ring capacity in rows per layer; ``<= 0`` disables the ring.
    hot_capacity: int = 20000
    #: ring budget in MiB per layer (overrides ``hot_capacity`` when set).
    hot_mb: Optional[float] = None

    def __post_init__(self):
        if self.hot_mb is not None and not (math.isfinite(self.hot_mb) and self.hot_mb > 0):
            raise ValueError(
                f"hot_mb={self.hot_mb} (--store-hot-mb) must be a positive "
                "finite number of MiB")

    def hot_rows(self, dim: Optional[int]) -> int:
        """Ring rows per layer, given its row width once known."""
        if self.hot_mb is None or dim is None or dim <= 0:
            return int(self.hot_capacity)
        return max(1, int(self.hot_mb * (1 << 20) / (4 * dim)))
