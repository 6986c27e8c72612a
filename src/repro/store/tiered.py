"""`TieredFeatureStore`: one hot table over its source, staging for prefetches.

Rows live in named *spaces* — ``'nfeat'`` / ``'mem'`` style spaces
backed by an authoritative source array (always resolvable), and
memoization spaces such as ``'embed:0'`` holding computed embeddings
(resolvable only while cached).
Each space owns:

* **hot** — a :class:`~repro.core.kernels.cache.NodeTimeCache` ring
  (reuse-distance eviction); hits are device-resident and free.  Rows it
  evicts are dropped: a source row is re-read, a memo row is a miss to
  recompute.
* **source** — the authority (:meth:`TieredFeatureStore.register_source`);
  reads pay the pageable leg plus the pinned leg and are promoted into hot.
  Its reads are accounted as the ``cold`` tier.
* **staging** — a FIFO :class:`NodeTimeCache` of pinned host rows that only
  :meth:`~TieredFeatureStore.prefetch` lands rows in; hits pay only the
  pinned host->device leg.

All movement is charged to the simulated device-transfer model
(:data:`repro.tensor.device.runtime`), and stall time is modeled against
the store's simulated clock — prefetched rows consumed after their ready
time cost nothing and the difference is booked as ``stall_saved_seconds``.

Accounting lives in a counter table (``TContext.counters`` for a context's
store) under ``store:<tier>:<key>`` and ``store:prefetch_*`` /
``store:stall_*``.  The store counts only what no ring sees: bytes per
tier, source reads (``store:cold:hits``), the prefetch ledger and stall.
The hot and staging hits / misses / evictions are the rings' own counts,
summed at read time by :meth:`TieredFeatureStore.gauges`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..clock import SimClock
from ..core.kernels.cache import NodeTimeCache
from ..core.kernels.dedup import unique_node_times
from ..core.stats import declare
from ..tensor.device import runtime as _device_runtime
from .api import StoreConfig
from .tiers import PinnedPool

__all__ = ["TieredFeatureStore"]

#: pinned staging capacity in rows per space (prefetched rows only).
STAGING_ROWS = 4096

Source = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]

#: the tiers each report hits / misses / bytes_in / bytes_out / evictions.
TIERS = ("hot", "staging", "cold")
#: the rings whose hits / misses / evictions are summed at read time.
RINGS = ("hot", "staging")
#: the keys the store counts itself (the hot ring's outflow and the
#: source's misses / inflow / evictions never move: they stay 0).
COUNTED = (
    "store:hot:bytes_in", "store:hot:bytes_out",
    "store:staging:bytes_in", "store:staging:bytes_out",
    *(f"store:cold:{key}" for key in
      ("hits", "misses", "bytes_in", "bytes_out", "evictions")),
    "store:prefetch_issued", "store:prefetch_hits", "store:prefetch_late",
    "store:prefetch_unused",
)
STALL = ("store:stall_seconds", "store:stall_saved_seconds")


def _times_or_zero(nodes: np.ndarray, times: Optional[np.ndarray]) -> np.ndarray:
    if times is None:
        return np.zeros(len(nodes), dtype=np.float64)
    return np.asarray(times, dtype=np.float64) + 0.0  # canonical -0.0 -> +0.0


def _demand_seconds(nbytes: int) -> float:
    """Stall of a demand source read: the pageable leg, then the pinned leg."""
    return (nbytes / _device_runtime.pageable_bandwidth
            + nbytes / _device_runtime.pinned_bandwidth)


def _fetcher(source: Source, dim: Optional[int]):
    """``(nodes -> rows, row width)`` for an array or a gather callable."""
    if callable(source):
        if dim is None:
            raise ValueError("dim is required for a callable source")
        return source, int(dim)
    arr = np.asarray(source)
    return (lambda nodes: arr[nodes]), int(arr.shape[1])


class _Space:
    """One named row universe: hot ring, optional source, prefetch staging."""

    def __init__(self, name: str, store: "TieredFeatureStore"):
        self.name = name
        self.store = store
        self.dim: Optional[int] = None
        self.hot = self.new_hot(store.config.hot_rows(None))
        self.staging = NodeTimeCache(
            STAGING_ROWS, policy="fifo",
            on_evict=self._staging_evicted,
        )
        #: the authority's gather (node-keyed; query times are ignored);
        #: ``None`` for memoization spaces.
        self.source: Optional[Callable[[np.ndarray], np.ndarray]] = None
        #: prefetched keys in flight:
        #: (node, time) -> (ready_time, per-key source-leg share, group leg)
        self.inflight: Dict[Tuple[int, float], Tuple[float, float, float]] = {}

    def new_hot(self, rows: int) -> NodeTimeCache:
        """An empty reuse-distance hot tier of *rows* rows."""
        return NodeTimeCache(rows, policy="reuse")

    def read(self, nodes: np.ndarray) -> np.ndarray:
        return np.asarray(self.source(nodes)).astype(np.float32, copy=False)

    def _staging_evicted(self, nodes: np.ndarray, times: np.ndarray,
                         rows: np.ndarray) -> None:
        self.store._retire_inflight(self, nodes, times)


class TieredFeatureStore:
    """The one caching implementation behind every cache front-end.

    Args:
        config: knobs shared with the CLI surface (see
            :class:`~repro.store.api.StoreConfig`); defaults apply.
        clock: the :class:`~repro.clock.SimClock` stalls are modeled
            against; the serving runtime passes its own so store
            transfers and ladder deadlines share one timeline.  A
            private one is used if omitted.
        counters: the counter table the store and its pinned pool count
            into (a context passes ``ctx.counters``); a fresh one if None.
    """

    def __init__(self, config: Optional[StoreConfig] = None, clock=None,
                 counters: Optional[Dict[str, float]] = None):
        self.config = config if config is not None else StoreConfig()
        self.clock = clock if clock is not None else SimClock()
        self.counters = declare(counters, *COUNTED)
        for key in STALL:
            self.counters.setdefault(key, 0.0)
        self.pinned_pool = PinnedPool(self.counters)
        self._spaces: Dict[str, _Space] = {}
        #: per ring: hits / lookups / evictions of rings since cleared or
        #: replaced (a ring's own counts restart when it is cleared).
        self._retired: Dict[str, List[int]] = {tier: [0, 0, 0] for tier in RINGS}

    # ---- spaces -------------------------------------------------------------------

    def space(self, name: str) -> _Space:
        sp = self._spaces.get(name)
        if sp is None:
            sp = _Space(name, self)
            self._spaces[name] = sp
        return sp

    def spaces(self) -> Tuple[str, ...]:
        return tuple(self._spaces)

    def register_source(self, name: str, source: Source,
                        dim: Optional[int] = None) -> _Space:
        """Back *name* with an authoritative array (raw features, memory).

        Source spaces are node-keyed (query times are ignored by the
        authority) and always resolvable through :meth:`get`.
        """
        sp = self.space(name)
        sp.source, width = _fetcher(source, dim)
        self._set_dim(sp, width)
        return sp

    def _set_dim(self, sp: _Space, dim: int) -> None:
        """First sight of a space's row width: resolve a MiB budget to rows.

        The hot cache was sized by ``hot_capacity`` at space creation;
        once the width is known a ``hot_mb`` budget takes precedence.  The
        cache is still empty at this point (a space has no width until its
        first rows arrive), so re-creating it loses nothing.
        """
        if sp.dim is not None:
            return
        sp.dim = int(dim)
        if self.config.hot_mb is not None:
            self._retire("hot", sp.hot)
            sp.hot = sp.new_hot(self.config.hot_rows(sp.dim))

    def refresh(self, nodes: np.ndarray, space: str = "nfeat",
                times: Optional[np.ndarray] = None) -> int:
        """Re-store fresh authority rows for resident keys (invalidation).

        Called after a state commit mutates source rows: resident keys
        keep their tier slot but take the new value, so the cache never
        serves pre-commit data.  ``times`` selects which time coordinate
        the resident keys were stored under (callers that key rows by a
        version stamp pass it here; the default zeros match rows stored
        with no explicit times).  Returns the number of rows refreshed.
        """
        sp = self._spaces.get(space)
        if sp is None or sp.source is None:
            return 0
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        nodes, tq, _ = unique_node_times(nodes, tq)
        refreshed = 0
        for tier in (sp.hot, sp.staging):
            mask = tier.contains(nodes, tq)
            if mask.any():
                tier.store(nodes[mask], tq[mask], sp.read(nodes[mask]))
                refreshed += int(mask.sum())
        # the refreshed rows no longer wait on their prefetch
        self._retire_inflight(sp, nodes, tq)
        return refreshed

    # ---- core resolution ----------------------------------------------------------

    def _to_hot(self, sp: _Space, nodes: np.ndarray, times: np.ndarray,
                rows: np.ndarray) -> None:
        """Store rows into the hot ring (it counts what they displace)."""
        self.counters["store:hot:bytes_in"] += rows.nbytes
        sp.hot.store(nodes, times, rows)

    def lookup(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
               space: str = "nfeat") -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Resolve rows through the tiers; ``(hit_mask, rows)`` like the
        flat cache — misses stay False for the caller to compute.

        A memoization space resolves from its hot tier only.  A source
        space resolves every key: hot, then staged prefetches, then the
        source, and rows found below hot are promoted into it.  Every
        transfer is charged per tier and stalls are modeled against the
        clock (prefetched rows whose transfer already completed stall
        nothing, and the avoided source leg is booked as saved).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        n = len(nodes)
        sp = self.space(space)
        found, out = sp.hot.lookup(nodes, tq)
        if sp.source is None or found.all():
            return found, out
        miss = np.flatnonzero(~found)
        if out is None:
            out = np.zeros((n, sp.dim), dtype=np.float32)
        c = self.counters

        # --- staging: pinned rows pay only the host->device leg --------------
        stg_hit, stg_rows = sp.staging.lookup(nodes[miss], tq[miss])
        if stg_hit.any():
            idx = miss[stg_hit]
            got = stg_rows[stg_hit]
            nbytes = got.nbytes
            c["store:staging:bytes_out"] += nbytes
            _device_runtime.transfer(nbytes, pinned=True)
            self._consume_staged(sp, nodes[idx], tq[idx], nbytes)
            out[idx] = got
            self._to_hot(sp, nodes[idx], tq[idx], got)
            miss = miss[~stg_hit]

        # --- source: a demand read pays the pageable and pinned legs ---------
        if len(miss):
            got = sp.read(nodes[miss])
            nbytes = got.nbytes
            c["store:cold:hits"] += len(miss)
            c["store:cold:bytes_out"] += nbytes
            _device_runtime.transfer(nbytes, pinned=False)
            c["store:stall_seconds"] += _demand_seconds(nbytes)
            # the rows pass through staging buffers on their way up
            c["store:staging:bytes_in"] += nbytes
            _device_runtime.transfer(nbytes, pinned=True)
            out[miss] = got
            self._to_hot(sp, nodes[miss], tq[miss], got)
        found[:] = True
        return found, out

    def get(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
            space: str = "nfeat") -> np.ndarray:
        """Fully resolve rows (source-backed spaces); KeyError on a miss."""
        found, rows = self.lookup(nodes, times, space)
        if len(nodes) and not found.all():
            raise KeyError(
                f"{int((~found).sum())} of {len(found)} keys unresolvable in "
                f"space {space!r} (memoization spaces only hold computed rows)")
        if rows is None:
            rows = np.zeros((0, self.space(space).dim or 0), dtype=np.float32)
        return rows

    def put(self, nodes: np.ndarray, times: Optional[np.ndarray],
            rows: np.ndarray, space: str = "nfeat") -> None:
        """Insert computed rows into the hot tier (overflow is dropped)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        sp = self.space(space)
        self._set_dim(sp, rows.shape[1])
        self._to_hot(sp, nodes, _times_or_zero(nodes, times), rows)

    # ---- prefetch -----------------------------------------------------------------

    def prefetch(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
                 space: str = "nfeat") -> int:
        """Start async source->staging transfers for keys not yet resident.

        The rows land in the staging tier immediately with a modeled
        *ready time*; a later :meth:`lookup`/:meth:`get` consuming them
        after that time pays no source-leg stall (the saving is recorded),
        before it pays only the remainder.  Returns rows issued.
        """
        if self.config.prefetch_depth <= 0:
            return 0
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        sp = self.space(space)
        if sp.source is None:
            return 0
        # unique keys resident in neither tier (in-flight keys are staged)
        un, ut, _ = unique_node_times(nodes, tq)
        fresh = ~sp.hot.contains(un, ut) & ~sp.staging.contains(un, ut)
        if not fresh.any():
            return 0
        kn, kt = un[fresh], ut[fresh]
        rows = sp.read(kn)
        nbytes = rows.nbytes
        c = self.counters
        c["store:cold:hits"] += len(kn)
        c["store:cold:bytes_out"] += nbytes
        c["store:staging:bytes_in"] += nbytes
        _device_runtime.transfer(nbytes, pinned=False)
        leg = nbytes / _device_runtime.pageable_bandwidth
        ready = self.clock.now() + leg
        per_key = leg / len(kn)
        for i in range(len(kn)):
            sp.inflight[(int(kn[i]), float(kt[i]))] = (ready, per_key, leg)
        sp.staging.store(kn, kt, rows)
        c["store:prefetch_issued"] += len(kn)
        return int(len(kn))

    def _consume_staged(self, sp: _Space, nodes: np.ndarray, times: np.ndarray,
                        nbytes: int) -> None:
        """Stall accounting for rows served out of the staging tier."""
        now = self.clock.now()
        stall = nbytes / _device_runtime.pinned_bandwidth  # the pinned leg is always paid
        c = self.counters
        for i in range(len(nodes)):
            entry = sp.inflight.pop((int(nodes[i]), float(times[i])), None)
            if entry is None:
                continue  # consumed before: no source leg pending
            ready, cost, group_leg = entry
            late = max(0.0, ready - now)
            # A group's keys transfer together: each key pays only its
            # share of the group's remaining leg, so paid + saved == cost
            # per key and a batch consumed early never out-stalls the
            # demand read it replaced.
            share = cost * (late / group_leg) if group_leg > 0 else 0.0
            stall += share
            c["store:stall_saved_seconds"] += cost - share
            c["store:prefetch_late" if late > 0 else "store:prefetch_hits"] += 1
        c["store:stall_seconds"] += stall

    def estimate_fetch_seconds(self, nodes: np.ndarray,
                               times: Optional[np.ndarray] = None,
                               space: str = "nfeat") -> float:
        """Stall a :meth:`get` issued *now* would pay — side-effect-free.

        Used by the serve degradation ladder to price the fetch penalty
        of a prefetch miss without perturbing any statistics.
        """
        sp = self._spaces.get(space)
        if sp is None or sp.source is None or len(nodes) == 0:
            return 0.0
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        miss = ~sp.hot.contains(nodes, tq)
        if not miss.any():
            return 0.0
        row_bytes = sp.dim * 4
        now = self.clock.now()
        seconds = 0.0
        staged = sp.staging.contains(nodes[miss], tq[miss])
        n_staged = int(staged.sum())
        if n_staged:
            seconds += n_staged * row_bytes / _device_runtime.pinned_bandwidth
            for i in np.flatnonzero(miss)[staged]:
                entry = sp.inflight.get((int(nodes[i]), float(tq[i])))
                if entry is not None and entry[2] > 0:
                    seconds += max(0.0, entry[0] - now) * entry[1] / entry[2]
        unstaged = int(miss.sum()) - n_staged
        if unstaged > 0:
            seconds += _demand_seconds(unstaged * row_bytes)
        return seconds

    # ---- lifecycle / accounting ---------------------------------------------------

    def _retire_inflight(self, sp: _Space, nodes: np.ndarray, times: np.ndarray) -> None:
        """Prefetched keys that will never be consumed as such: unused."""
        unused = 0
        for i in range(len(nodes)):
            unused += sp.inflight.pop((int(nodes[i]), float(times[i])), None) is not None
        self.counters["store:prefetch_unused"] += unused

    def _retire(self, tier: str, ring: NodeTimeCache) -> None:
        """Keep a ring's counts in the totals before it restarts them."""
        retired = self._retired[tier]
        retired[0] += ring.hits
        retired[1] += ring.lookups
        retired[2] += ring.evictions

    def _drop(self, sp: _Space) -> None:
        """Empty a space's rings; its in-flight prefetches go unused."""
        self.counters["store:prefetch_unused"] += len(sp.inflight)
        sp.inflight.clear()
        for tier in RINGS:
            ring = getattr(sp, tier)
            self._retire(tier, ring)
            ring.clear()

    def evict(self, space: Optional[str] = None) -> None:
        """Drop cached contents (hot and staging); sources survive."""
        targets = [self.space(space)] if space is not None else list(self._spaces.values())
        for sp in targets:
            self._drop(sp)

    def clear(self) -> None:
        """Drop everything cached and forget memoization spaces.

        Source-backed spaces keep their registration (they are wiring,
        not scratch) but lose their cached tiers; memo spaces disappear
        entirely, as if never used.
        """
        for name in list(self._spaces):
            sp = self._spaces[name]
            self._drop(sp)
            if sp.source is None:
                del self._spaces[name]

    def gauges(self) -> Dict[str, int]:
        """The read-time keys: each ring's hits / misses / evictions summed
        over spaces, and the prefetched rows still in flight."""
        out: Dict[str, int] = {}
        for tier in RINGS:
            hits, lookups, evictions = self._retired[tier]
            for sp in self._spaces.values():
                ring = getattr(sp, tier)
                hits += ring.hits
                lookups += ring.lookups
                evictions += ring.evictions
            out[f"store:{tier}:hits"] = hits
            out[f"store:{tier}:misses"] = lookups - hits
            out[f"store:{tier}:evictions"] = evictions
        out["store:prefetch_in_flight"] = sum(len(sp.inflight) for sp in self._spaces.values())
        return out

    def zero_counts(self) -> None:
        """Restart the rings' counts behind :meth:`gauges` (the table's own
        keys are zeroed by its owner)."""
        self._retired = {tier: [0, 0, 0] for tier in RINGS}
        for sp in self._spaces.values():
            sp.hot.reset_stats()
            sp.staging.reset_stats()

    def __repr__(self) -> str:
        return (f"TieredFeatureStore(spaces={list(self._spaces)}, "
                f"prefetch_depth={self.config.prefetch_depth})")
