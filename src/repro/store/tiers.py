"""The pinned staging pool.

:class:`PinnedPool` holds the reusable pinned host buffers ``preload``
stages gathered rows through; each ``TContext`` holds one.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.stats import declare
from ..tensor import Tensor
from ..tensor.device import CPU

__all__ = ["PinnedPool"]


class PinnedPool:
    """Reusable pinned staging buffers, keyed by trailing row shape + dtype.

    Mirrors TGLite's pre-allocated pinned-memory pool: staging copies
    gathered feature rows into a pooled buffer so the (simulated) DMA
    engine can transfer at pinned bandwidth without per-batch allocation.
    Buffer reuse is counted into *counters* as ``pinned:hits`` (an
    existing buffer fit) and ``pinned:misses`` (one was allocated).
    """

    def __init__(self, counters: Optional[Dict[str, float]] = None):
        self._buffers: Dict[Tuple[Tuple[int, ...], str], np.ndarray] = {}
        self.counters = declare(counters, "pinned:hits", "pinned:misses")

    def stage(self, rows: np.ndarray) -> Tensor:
        """Copy *rows* into a pooled pinned host buffer and return it."""
        key = (rows.shape[1:], rows.dtype.str)
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < rows.shape[0]:
            capacity = max(rows.shape[0], 2 * (buf.shape[0] if buf is not None else 0))
            buf = np.empty((capacity,) + rows.shape[1:], dtype=rows.dtype)
            self._buffers[key] = buf
            self.counters["pinned:misses"] += 1
        else:
            self.counters["pinned:hits"] += 1
        view = buf[: rows.shape[0]]
        np.copyto(view, rows)
        staged = Tensor(view, device=CPU, pinned=True)
        return staged

    def clear(self) -> None:
        self._buffers.clear()
