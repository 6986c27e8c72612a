"""`TieredFeatureStore`: one reuse-distance hot ring per memoization space.

Rows live in named *spaces* of computed rows — ``'embed:<l>'`` holds
layer ``l``'s time-aware embeddings (``op.cache`` / :func:`~repro.store.ops.memoize`).
The store has no serving user: a served query is at a fresh event time,
which an exact ``(node, time)`` key never hits, so the serve ``cache``
rung reads the engine's own per-node table instead.  Each space
is one :class:`~repro.core.kernels.cache.NodeTimeCache` ring with
reuse-distance eviction; a row it evicts is dropped, and a later lookup
of it is a miss the caller recomputes.

The store also owns the :class:`~repro.store.tiers.PinnedPool` that
``preload`` stages gathered rows through.

Accounting lives in a counter table (``TContext.counters`` for a context's
store) under ``store:hot:<key>``.  The store counts only the bytes it
stores into the rings; their hits / misses / evictions are the rings' own
counts, summed at read time by :meth:`TieredFeatureStore.gauges`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.kernels.cache import NodeTimeCache
from ..core.kernels.dedup import unique_node_times  # noqa: F401  perf/trace.py wraps this name
from ..core.stats import declare
from .api import StoreConfig
from .tiers import PinnedPool

__all__ = ["TieredFeatureStore"]

#: the keys the store counts itself (nothing reads a row back out of the
#: store past a lookup, so ``bytes_out`` never moves: it stays 0).
COUNTED = ("store:hot:bytes_in", "store:hot:bytes_out")


def _times_or_zero(nodes: np.ndarray, times: Optional[np.ndarray]) -> np.ndarray:
    if times is None:
        return np.zeros(len(nodes), dtype=np.float64)
    return np.asarray(times, dtype=np.float64) + 0.0  # canonical -0.0 -> +0.0


class _Space:
    """One named row universe: its hot ring and, once known, its row width."""

    def __init__(self, rows: int):
        self.dim: Optional[int] = None
        self.hot = NodeTimeCache(rows, policy="reuse")


class TieredFeatureStore:
    """The memo cache behind every cache front-end.

    Args:
        config: the hot-ring size (see
            :class:`~repro.store.api.StoreConfig`); defaults apply.
        counters: the counter table the store and its pinned pool count
            into (a context passes ``ctx.counters``); a fresh one if None.
    """

    def __init__(self, config: Optional[StoreConfig] = None,
                 counters: Optional[Dict[str, float]] = None):
        self.config = config if config is not None else StoreConfig()
        self.counters = declare(counters, *COUNTED)
        self.pinned_pool = PinnedPool(self.counters)
        self._spaces: Dict[str, _Space] = {}
        #: hits / lookups / evictions of rings since cleared or replaced
        #: (a ring's own counts restart when it is cleared).
        self._retired = [0, 0, 0]

    # ---- spaces -------------------------------------------------------------------

    def space(self, name: str) -> _Space:
        sp = self._spaces.get(name)
        if sp is None:
            sp = _Space(self.config.hot_rows(None))
            self._spaces[name] = sp
        return sp

    def spaces(self) -> Tuple[str, ...]:
        return tuple(self._spaces)

    def _set_dim(self, sp: _Space, dim: int) -> None:
        """First sight of a space's row width: resolve a MiB budget to rows.

        The ring was sized by ``hot_capacity`` at space creation; once the
        width is known a ``hot_mb`` budget takes precedence.  The ring is
        still empty at this point (a space has no width until its first
        rows arrive), so re-creating it loses nothing.
        """
        if sp.dim is not None:
            return
        sp.dim = int(dim)
        if self.config.hot_mb is not None:
            self._retire(sp.hot)
            sp.hot = NodeTimeCache(self.config.hot_rows(sp.dim), policy="reuse")

    # ---- rows ---------------------------------------------------------------------

    def lookup(self, nodes: np.ndarray, times: Optional[np.ndarray],
               space: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(hit_mask, rows)`` from the space's ring; misses stay False
        for the caller to compute (``rows`` is None before the first put)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.space(space).hot.lookup(nodes, _times_or_zero(nodes, times))

    def put(self, nodes: np.ndarray, times: Optional[np.ndarray],
            rows: np.ndarray, space: str) -> None:
        """Insert computed rows into the space's ring (it evicts to fit)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        sp = self.space(space)
        self._set_dim(sp, rows.shape[1])
        self.counters["store:hot:bytes_in"] += rows.nbytes
        sp.hot.store(nodes, _times_or_zero(nodes, times), rows)

    # ---- lifecycle / accounting ---------------------------------------------------

    def _retire(self, ring: NodeTimeCache) -> None:
        """Keep a ring's counts in the totals before it restarts them."""
        self._retired[0] += ring.hits
        self._retired[1] += ring.lookups
        self._retired[2] += ring.evictions

    def evict(self, space: Optional[str] = None) -> None:
        """Empty one space's ring (every ring when *space* is None)."""
        targets = [self.space(space)] if space is not None else list(self._spaces.values())
        for sp in targets:
            self._retire(sp.hot)
            sp.hot.clear()

    def clear(self) -> None:
        """Drop every space, as if never used (their counts are kept)."""
        for sp in self._spaces.values():
            self._retire(sp.hot)
        self._spaces.clear()

    def gauges(self) -> Dict[str, int]:
        """The read-time keys: the rings' hits / misses / evictions summed
        over spaces."""
        hits, lookups, evictions = self._retired
        for sp in self._spaces.values():
            hits += sp.hot.hits
            lookups += sp.hot.lookups
            evictions += sp.hot.evictions
        return {"store:hot:hits": hits, "store:hot:misses": lookups - hits,
                "store:hot:evictions": evictions}

    def zero_counts(self) -> None:
        """Restart the rings' counts behind :meth:`gauges` (the table's own
        keys are zeroed by its owner)."""
        self._retired = [0, 0, 0]
        for sp in self._spaces.values():
            sp.hot.reset_stats()

    def __repr__(self) -> str:
        return f"TieredFeatureStore(spaces={list(self._spaces)})"
