"""TContext: settings and scratch space used by the TGLite runtime.

A :class:`TContext` carries (a) placement policy — which simulated device
computation runs on and where raw feature data lives — and (b) the
scratch space the optimization operators write: the memo cache
``op.cache()`` resolves through (one reuse-distance
:class:`~repro.core.kernels.cache.NodeTimeCache` ring per layer,
:meth:`TContext.embed_cache`, sized by a
:class:`~repro.store.api.StoreConfig`), the pool of pinned staging
buffers used by ``op.preload()``, and the precomputed time-vector tables
used by ``op.precomputed_times()``/``op.precomputed_zeros()``.

Instrumentation is one counter table, :attr:`TContext.counters`, read
through :meth:`TContext.stats` (a :class:`~repro.core.stats.ContextStats`
snapshot: the table plus its read-time keys, and request latencies) and
zeroed by :meth:`TContext.reset_stats`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple, Union

import numpy as np

from ..store.api import StoreConfig
from ..store.tiers import PinnedPool
from ..tensor import Tensor
from ..tensor.device import Device, get_device
from .kernels.cache import NodeTimeCache
from .stats import ContextStats, Latency

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import TGraph

__all__ = ["TContext"]

#: counter-table prefix of transient kernel faults per site.
_FAULT_PREFIX = "kernel_faults:"


class TContext:
    """Runtime settings and scratch space for TGLite computations.

    Args:
        graph: the :class:`~repro.core.graph.TGraph` this context serves.
        device: simulated device computation runs on.
        time_window: rounding resolution for precomputed-time lookups; time
            deltas are quantized to multiples of this before table lookup
            (0 means exact float matching).
        store: the :class:`~repro.store.api.StoreConfig` sizing each
            layer's memo ring (``None`` for defaults).
    """

    def __init__(
        self,
        graph: "TGraph",
        device: Union[str, Device, None] = None,
        time_window: float = 0.0,
        store: Optional[StoreConfig] = None,
    ):
        self.graph = graph
        self.device = get_device(device)
        self.time_window = time_window
        self.training = True
        graph.ctx = self

        #: the one counter table: operator counters (rows seen/removed by
        #: dedup()), kernel faults, the pinned pool's reuse, and every
        #: counter of a serving deployment built over this context; read
        #: via stats().  Kernel wall seconds are spans (repro.spans), not
        #: counters.
        self.counters: Dict[str, float] = {}
        self.store_config = store if store is not None else StoreConfig()
        self.pinned_pool = PinnedPool(self.counters)
        #: each layer's memo ring, by layer id (see embed_cache()).
        self.embed_caches: Dict[int, NodeTimeCache] = {}
        self._time_tables: Dict[int, dict] = {}
        self._time_zero_rows: Dict[int, Tuple[int, np.ndarray]] = {}
        #: kernels downgraded to their uncached/reference paths, keyed by
        #: site name ('kernel.sample', 'kernel.cache') with a reason.
        self.degraded: Dict[str, str] = {}
        #: transient faults after which a kernel is degraded.
        self.degrade_threshold: int = 3
        #: optional cap on sampler fanout (the serving runtime's
        #: degradation ladder shrinks it under deadline pressure; see
        #: :meth:`TSampler.effective_fanout`).  None = no cap.
        self.fanout_limit: Optional[int] = None
        #: the 8192 most recent request latencies (seconds on the serving
        #: runtime's simulated clock) + total count ever recorded.
        self._latencies: Deque[float] = deque(maxlen=8192)
        self._latency_count = 0

    # ---- modes ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "TContext":
        """Switch the context into training (True) or inference mode."""
        self.training = mode
        if mode:
            # Cached embeddings are invalid once parameters start moving.
            self.clear_embed_cache()
        return self

    def eval(self) -> "TContext":
        return self.train(False)

    # ---- pinned pool ---------------------------------------------------------------

    def stage_pinned(self, rows: np.ndarray) -> Tensor:
        """Stage host rows into the pinned pool (see ``op.preload``)."""
        return self.pinned_pool.stage(rows)

    # ---- embedding cache -------------------------------------------------------------

    def embed_cache(self, layer: int) -> NodeTimeCache:
        """Layer *layer*'s memo ring (``op.cache``), made on first use with
        ``hot_capacity`` rows."""
        ring = self.embed_caches.get(layer)
        if ring is None:
            ring = self.embed_caches[layer] = NodeTimeCache(self.store_config.hot_rows(None))
        return ring

    def fit_embed_cache(self, layer: int, width: int) -> NodeTimeCache:
        """The ring that rows of *width* columns are stored into.

        A ``hot_mb`` budget becomes rows once the width is known: before
        its first row, the ring is re-made at that size (it holds nothing
        yet; its lookup counts carry over).
        """
        ring = self.embed_cache(layer)
        rows = self.store_config.hot_rows(width)
        if ring.dim is None and rows != ring.capacity:
            fitted = self.embed_caches[layer] = NodeTimeCache(rows)
            fitted.hits, fitted.lookups = ring.hits, ring.lookups
            ring = fitted
        return ring

    def clear_embed_cache(self) -> None:
        for ring in self.embed_caches.values():
            ring.clear()

    # ---- instrumentation --------------------------------------------------------

    def count(self, key: str, amount: int) -> None:
        """Accumulate a counter of the table (e.g. 'dedup_rows_in')."""
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def record_latency(self, seconds: float) -> None:
        """Record one request's end-to-end latency (serving runtime).

        Kept in a bounded reservoir of the most recent samples; the p50/p99
        surfaced by :meth:`stats` are computed over that reservoir.
        """
        self._latency_count += 1
        self._latencies.append(float(seconds))

    def _latency(self) -> Optional[Latency]:
        if not self._latencies:
            return None
        arr = np.asarray(self._latencies)
        return Latency(
            count=self._latency_count,
            p50=float(np.percentile(arr, 50)),
            p99=float(np.percentile(arr, 99)),
            mean=float(arr.mean()),
        )

    # ---- graceful degradation ---------------------------------------------------

    def record_kernel_fault(self, site: str) -> bool:
        """Count one transient fault at *site*; degrade past the threshold.

        After ``degrade_threshold`` transient faults the named kernel is
        downgraded for the rest of the run: ``'kernel.sample'`` dispatches
        to the loop-reference sampler (bit-identical, slower) and
        ``'kernel.cache'`` disables embedding memoization (``op.cache``
        becomes a no-op and lookups bypass the faulty table).  Returns
        True on the call that triggers the downgrade.  The count is the
        ``kernel_faults:<site>`` counter.
        """
        key = _FAULT_PREFIX + site
        count = self.counters[key] = self.counters.get(key, 0) + 1
        if site not in self.degraded and count >= self.degrade_threshold:
            self.degraded[site] = (
                f"degraded to fallback path after {count} transient faults"
            )
            return True
        return False

    def is_degraded(self, site: str) -> bool:
        """Whether *site* has been downgraded to its fallback path."""
        return site in self.degraded

    def stats(self) -> ContextStats:
        """One frozen snapshot: the counter table plus its read-time keys —
        each memo ring's ``embed:<layer>:{hits,lookups,entries,evictions}``
        (since its last clear) and ``degraded:<site>`` — and the request
        latencies."""
        counters = dict(self.counters)
        for layer, ring in self.embed_caches.items():
            counters.update({f"embed:{layer}:hits": ring.hits,
                             f"embed:{layer}:lookups": ring.lookups,
                             f"embed:{layer}:entries": ring.num_entries,
                             f"embed:{layer}:evictions": ring.evictions})
        counters.update({f"degraded:{site}": 1.0 for site in self.degraded})
        return ContextStats(counters, self._latency())

    def reset_stats(self) -> None:
        """Zero all instrumentation; cache *contents* are kept.

        Every key of the table stays (the components that declared it
        keep counting into it) and reads 0.
        """
        for key, value in self.counters.items():
            self.counters[key] = 0.0 if isinstance(value, float) else 0
        self._latencies.clear()
        self._latency_count = 0
        for ring in self.embed_caches.values():
            ring.reset_stats()

    # ---- precomputed time tables --------------------------------------------------------

    def time_table(self, encoder_id: int) -> dict:
        """Scratch dict for one TimeEncode module's precomputed vectors:
        the encoder ``version`` it was built at, the dense ``rows`` indexed
        by quantised-delta bucket and which of them are ``filled``."""
        table = self._time_tables.get(encoder_id)
        if table is None:
            table = {"version": None, "rows": None, "filled": None}
            self._time_tables[encoder_id] = table
        return table

    def time_zero_slot(self, encoder_id: int):
        return self._time_zero_rows.get(encoder_id)

    def set_time_zero_slot(self, encoder_id: int, version: int, row: np.ndarray) -> None:
        self._time_zero_rows[encoder_id] = (version, row)

    def clear_time_tables(self) -> None:
        self._time_tables.clear()
        self._time_zero_rows.clear()

    # ---- misc ------------------------------------------------------------------------------

    def reset(self) -> None:
        """Drop all scratch state (between experiments)."""
        self.pinned_pool.clear()
        self.embed_caches.clear()
        self.clear_time_tables()
        self.degraded.clear()
        for key in [k for k in self.counters if k.startswith(_FAULT_PREFIX)]:
            del self.counters[key]
        self.fanout_limit = None

    def __repr__(self) -> str:
        return f"TContext(device='{self.device}', training={self.training})"
