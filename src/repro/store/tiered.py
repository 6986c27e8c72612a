"""`TieredFeatureStore`: hot cache -> pinned staging -> cold tier.

The concrete :class:`~repro.store.api.FeatureStore`.  Rows live in named
*spaces* — ``'nfeat'`` / ``'mem'`` style spaces backed by an authoritative
source array (always resolvable), and memoization spaces such as
``'embed:0'`` holding computed embeddings (resolvable only while cached).
Each space owns a three-level hierarchy:

* **hot** — a :class:`~repro.core.kernels.cache.NodeTimeCache` ring
  (reuse-distance eviction by default); hits are device-resident and
  free.
* **staging** — a FIFO :class:`NodeTimeCache` of pinned host rows fed by
  hot-tier demotions and by the prefetcher; hits pay only the pinned
  host->device leg.
* **cold** — the authority: a :class:`~repro.store.tiers.SourceTier`
  view of the raw feature array, or a checksummed
  :class:`~repro.store.tiers.ColdTier` spill file for demoted
  embeddings; reads pay the cold leg (serialized disk bandwidth for
  spill files, pageable bandwidth for in-memory sources) plus the
  pinned leg.

Evictions cascade down the chain through ``on_evict`` callbacks
(hot -> staging -> cold), so nothing is silently dropped while a colder
tier can hold it.  All movement is charged to the simulated
device-transfer model (:data:`repro.tensor.device.runtime`) tagged with
the tier it crossed, and stall time is modeled against the store's
simulated clock — :meth:`prefetch` completes transfers in the
background, so rows consumed after their ready time cost nothing and
the difference is booked as ``stall_saved_seconds``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..clock import SimClock
from ..core.kernels.cache import NodeTimeCache
from ..core.kernels.dedup import unique_node_times
from ..tensor.device import runtime as _device_runtime
from .api import StoreConfig, StoreStats, TierStats
from .tiers import ColdTier, PinnedPool, SourceTier

__all__ = ["TieredFeatureStore"]

#: modeled spill-file (disk/mmap) bandwidth, bytes/second on the simulated
#: clock, scaled for the numpy substrate like
#: :mod:`repro.bench.experiments`'s PCIe bandwidths.
DISK_BANDWIDTH = 8.0e6


def _times_or_zero(nodes: np.ndarray, times: Optional[np.ndarray]) -> np.ndarray:
    if times is None:
        return np.zeros(len(nodes), dtype=np.float64)
    return np.asarray(times, dtype=np.float64) + 0.0  # canonical -0.0 -> +0.0


class _Space:
    """One named row universe and its three tiers."""

    def __init__(self, name: str, store: "TieredFeatureStore"):
        self.name = name
        self.store = store
        self.dim: Optional[int] = None
        cfg = store.config
        self.hot = self.new_hot(cfg.hot_rows(None))
        self.staging = NodeTimeCache(
            cfg.staging_rows, timer=store._timer, policy="fifo",
            on_evict=self._demote_to_cold,
        )
        self.cold: Optional[Union[SourceTier, ColdTier]] = None
        if cfg.cold_dir is not None:
            self.cold = None  # created lazily once the row width is known
        #: prefetched keys in flight:
        #: (node, time) -> (ready_time, per-key cold-leg share, group leg)
        self.inflight: Dict[Tuple[int, float], Tuple[float, float, float]] = {}

    def new_hot(self, rows: int) -> NodeTimeCache:
        """An empty reuse-distance hot tier of *rows* rows, demoting into staging."""
        return NodeTimeCache(rows, timer=self.store._timer, policy="reuse",
                             on_evict=self._demote_to_staging)

    # ---- demotion chain -----------------------------------------------------------

    def _demote_to_staging(self, nodes: np.ndarray, times: np.ndarray,
                           rows: np.ndarray) -> None:
        st = self.store
        st._tiers["hot"].evictions += len(nodes)
        if not self.staging.enabled:
            self._spill(nodes, times, rows)  # staging disabled: skip the hop
            return
        st._tiers["staging"].demotions += len(nodes)
        st._tiers["staging"].bytes_in += rows.nbytes
        _device_runtime.transfer(rows.nbytes, pinned=True, tier="staging")
        self.staging.store(nodes, times, rows)

    def _demote_to_cold(self, nodes: np.ndarray, times: np.ndarray,
                        rows: np.ndarray) -> None:
        st = self.store
        st._tiers["staging"].evictions += len(nodes)
        for i in range(len(nodes)):
            if self.inflight.pop((int(nodes[i]), float(times[i])), None) is not None:
                st._prefetch_unused += 1
        self._spill(nodes, times, rows)

    def _spill(self, nodes: np.ndarray, times: np.ndarray,
               rows: np.ndarray) -> None:
        st = self.store
        if isinstance(self.cold, SourceTier):
            return  # the authority already holds these rows; nothing to spill
        if self.cold is None:
            if st.config.cold_dir is None:
                return  # no spill tier configured: recomputable rows drop
            self._ensure_cold(rows.shape[1])
        st._tiers["cold"].demotions += len(nodes)
        st._tiers["cold"].bytes_in += rows.nbytes
        _device_runtime.transfer(rows.nbytes, pinned=False, tier="cold")
        self.cold.write(nodes, times, rows)

    def _ensure_cold(self, dim: int) -> None:
        if self.cold is None:
            self.cold = ColdTier(dim, directory=self.store.config.cold_dir,
                                 space=self.name)


class TieredFeatureStore:
    """The one tiering/eviction implementation behind every cache front-end.

    Args:
        config: knobs shared with the CLI surface (see
            :class:`~repro.store.api.StoreConfig`); defaults apply.
        clock: the :class:`~repro.clock.SimClock` stalls are modeled
            against; the serving runtime passes its own so store
            transfers and ladder deadlines share one timeline.  A
            private one is used if omitted.
        timer: optional ``(name, seconds)`` wall-time callback threaded
            into the tier kernels (``TContext.add_kernel_time``).
    """

    def __init__(self, config: Optional[StoreConfig] = None, clock=None,
                 timer: Optional[Callable[[str, float], None]] = None):
        self.config = config if config is not None else StoreConfig()
        self.clock = clock if clock is not None else SimClock()
        self._timer = timer
        self.pinned_pool = PinnedPool()
        self._spaces: Dict[str, _Space] = {}
        self._tiers: Dict[str, TierStats] = {
            "hot": TierStats(), "staging": TierStats(), "cold": TierStats(),
        }
        self._prefetch_issued = 0
        self._prefetch_hits = 0
        self._prefetch_late = 0
        self._prefetch_unused = 0
        self._stall_seconds = 0.0
        self._stall_saved = 0.0
        #: completion horizon of the serialized cold-read queue (spill
        #: files model one disk head; in-memory sources are not queued).
        self._disk_free = 0.0

    # ---- spaces -------------------------------------------------------------------

    def space(self, name: str) -> _Space:
        sp = self._spaces.get(name)
        if sp is None:
            sp = _Space(name, self)
            self._spaces[name] = sp
        return sp

    def spaces(self) -> Tuple[str, ...]:
        return tuple(self._spaces)

    def register_source(self, name: str,
                        source: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
                        dim: Optional[int] = None) -> _Space:
        """Back *name* with an authoritative array (raw features, memory).

        Source spaces are node-keyed (query times are ignored by the
        authority) and always resolvable through :meth:`get`.
        """
        sp = self.space(name)
        sp.cold = SourceTier(source, dim=dim)
        self._set_dim(sp, sp.cold.dim)
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
            sp.hot = sp.new_hot(self.config.hot_rows(sp.dim))

    def rebind_source(self, name: str,
                      source: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]) -> None:
        """Swap a source space's authority (model hot-swap); drops the
        cached tiers so stale rows cannot be served."""
        sp = self.space(name)
        if not isinstance(sp.cold, SourceTier):
            raise ValueError(f"space {name!r} is not source-backed")
        sp.cold.rebind(source)
        self.evict(name)

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
        if sp is None or not isinstance(sp.cold, SourceTier):
            return 0
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        nodes, tq, _ = unique_node_times(nodes, tq)
        refreshed = 0
        for tier in (sp.hot, sp.staging):
            mask = tier.contains(nodes, tq)
            if mask.any():
                rows = sp.cold.read(nodes[mask], None)
                tier.store(nodes[mask], tq[mask], rows)
                refreshed += int(mask.sum())
        for i in range(len(nodes)):
            sp.inflight.pop((int(nodes[i]), float(tq[i])), None)
        return refreshed

    # ---- bandwidths ---------------------------------------------------------------

    def _cold_bw(self, sp: _Space) -> float:
        if isinstance(sp.cold, SourceTier):
            return _device_runtime.pageable_bandwidth
        return DISK_BANDWIDTH

    # ---- core resolution ----------------------------------------------------------

    def lookup(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
               space: str = "nfeat") -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Resolve rows through the tiers; ``(hit_mask, rows)`` like the
        flat cache — misses stay False for the caller to compute.

        Rows found below the hot tier are promoted into it; every
        transfer is charged per tier and stalls are modeled against the
        clock (prefetched rows whose transfer already completed stall
        nothing, and the avoided cold leg is booked as saved).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        n = len(nodes)
        sp = self.space(space)
        hot_hit, rows = sp.hot.lookup(nodes, tq)
        hot = self._tiers["hot"]
        hot.hits += int(hot_hit.sum())
        hot.misses += n - int(hot_hit.sum())
        if hot_hit.all() and n:
            return hot_hit, rows
        out = rows if rows is not None else None
        miss = np.flatnonzero(~hot_hit)
        found = hot_hit.copy()

        # --- staging: pinned rows pay only the host->device leg --------------
        stg_hit, stg_rows = sp.staging.lookup(nodes[miss], tq[miss])
        stg = self._tiers["staging"]
        stg.hits += int(stg_hit.sum())
        stg.misses += len(miss) - int(stg_hit.sum())
        if stg_hit.any():
            idx = miss[stg_hit]
            got = stg_rows[stg_hit]
            nbytes = got.nbytes
            stg.bytes_out += nbytes
            _device_runtime.transfer(nbytes, pinned=True, tier="staging")
            self._consume_staged(sp, nodes[idx], tq[idx], nbytes)
            if out is None:
                out = np.zeros((n, got.shape[1]), dtype=np.float32)
            out[idx] = got
            found[idx] = True
            sp.hot.store(nodes[idx], tq[idx], got)
            hot.bytes_in += nbytes
            miss = miss[~stg_hit]

        # --- cold: authority / spill file ------------------------------------
        if len(miss) and sp.cold is not None:
            resident = sp.cold.contains(nodes[miss], tq[miss])
            if resident.any():
                idx = miss[resident]
                got = sp.cold.read(nodes[idx], tq[idx])
                nbytes = got.nbytes
                cold = self._tiers["cold"]
                cold.hits += int(resident.sum())
                cold.bytes_out += nbytes
                _device_runtime.transfer(nbytes, pinned=False, tier="cold")
                self._stall_cold_read(sp, nbytes)
                # the rows pass through staging buffers on their way up
                stg.bytes_in += nbytes
                _device_runtime.transfer(nbytes, pinned=True, tier="staging")
                if out is None:
                    out = np.zeros((n, got.shape[1]), dtype=np.float32)
                out[idx] = got
                found[idx] = True
                sp.hot.store(nodes[idx], tq[idx], got)
                hot.bytes_in += nbytes
            self._tiers["cold"].misses += int((~resident).sum())

        if sp.dim is None and out is not None:
            sp.dim = out.shape[1]
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
        """Insert computed rows into the hot tier (overflow demotes down)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        sp = self.space(space)
        self._set_dim(sp, rows.shape[1])
        self._tiers["hot"].bytes_in += rows.nbytes
        sp.hot.store(nodes, _times_or_zero(nodes, times), rows)

    # ---- prefetch -----------------------------------------------------------------

    def prefetch(self, nodes: np.ndarray, times: Optional[np.ndarray] = None,
                 space: str = "nfeat") -> int:
        """Start async cold->staging transfers for keys not yet resident.

        The rows land in the staging tier immediately with a modeled
        *ready time*; a later :meth:`lookup`/:meth:`get` consuming them
        after that time pays no cold-leg stall (the saving is recorded),
        before it pays only the remainder.  Returns rows issued.
        """
        if self.config.prefetch_depth <= 0:
            return 0
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        sp = self.space(space)
        if sp.cold is None:
            return 0
        # unique keys not already resident anywhere nor in flight
        un, ut, _ = unique_node_times(nodes, tq)
        fresh = ~sp.hot.contains(un, ut) & ~sp.staging.contains(un, ut)
        fresh &= sp.cold.contains(un, ut)
        for i in np.flatnonzero(fresh):
            if (int(un[i]), float(ut[i])) in sp.inflight:
                fresh[i] = False
        if not fresh.any():
            return 0
        kn, kt = un[fresh], ut[fresh]
        rows = sp.cold.read(kn, kt)
        nbytes = rows.nbytes
        cold = self._tiers["cold"]
        cold.hits += len(kn)
        cold.bytes_out += nbytes
        self._tiers["staging"].bytes_in += nbytes
        _device_runtime.transfer(nbytes, pinned=False, tier="cold")
        now = self.clock.now()
        leg = nbytes / self._cold_bw(sp)
        if isinstance(sp.cold, ColdTier):
            start = max(now, self._disk_free)
            ready = start + leg
            self._disk_free = ready
        else:
            ready = now + leg
        per_key = leg / len(kn)
        for i in range(len(kn)):
            sp.inflight[(int(kn[i]), float(kt[i]))] = (ready, per_key, leg)
        sp.staging.store(kn, kt, rows)
        self._prefetch_issued += len(kn)
        return int(len(kn))

    def _consume_staged(self, sp: _Space, nodes: np.ndarray, times: np.ndarray,
                        nbytes: int) -> None:
        """Stall accounting for rows served out of the staging tier."""
        now = self.clock.now()
        stall = nbytes / _device_runtime.pinned_bandwidth  # the pinned leg is always paid
        for i in range(len(nodes)):
            entry = sp.inflight.pop((int(nodes[i]), float(times[i])), None)
            if entry is None:
                continue  # demoted row: already staged, no cold leg pending
            ready, cost, group_leg = entry
            late = max(0.0, ready - now)
            # A group's keys transfer together: each key pays only its
            # share of the group's remaining leg, so paid + saved == cost
            # per key and a batch consumed early never out-stalls the
            # demand read it replaced.
            share = cost * (late / group_leg) if group_leg > 0 else 0.0
            stall += share
            self._stall_saved += cost - share
            if late > 0:
                self._prefetch_late += 1
            else:
                self._prefetch_hits += 1
        self._stall_seconds += stall

    def _stall_cold_read(self, sp: _Space, nbytes: int) -> None:
        """Stall accounting for a demand (non-prefetched) cold read."""
        now = self.clock.now()
        leg = nbytes / self._cold_bw(sp)
        if isinstance(sp.cold, ColdTier):
            start = max(now, self._disk_free)
            done = start + leg
            self._disk_free = done
            stall = done - now
        else:
            stall = leg
        self._stall_seconds += stall + nbytes / _device_runtime.pinned_bandwidth

    def estimate_fetch_seconds(self, nodes: np.ndarray,
                               times: Optional[np.ndarray] = None,
                               space: str = "nfeat") -> float:
        """Stall a :meth:`get` issued *now* would pay — side-effect-free.

        Used by the serve degradation ladder to price the fetch penalty
        of a prefetch miss without perturbing any statistics.
        """
        sp = self._spaces.get(space)
        if sp is None or sp.dim is None or len(nodes) == 0:
            return 0.0
        nodes = np.asarray(nodes, dtype=np.int64)
        tq = _times_or_zero(nodes, times)
        in_hot = sp.hot.contains(nodes, tq)
        miss = ~in_hot
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
        deeper = int(miss.sum()) - n_staged
        if deeper > 0 and sp.cold is not None:
            nbytes = deeper * row_bytes
            leg = nbytes / self._cold_bw(sp)
            if isinstance(sp.cold, ColdTier):
                leg += max(0.0, self._disk_free - now)
            seconds += leg + nbytes / _device_runtime.pinned_bandwidth
        return seconds

    # ---- lifecycle / stats --------------------------------------------------------

    def evict(self, space: Optional[str] = None) -> None:
        """Drop cached contents: hot, staging, and cold *spills*.

        Spill files hold demoted cache copies, so they are dropped too —
        an invalidation (e.g. weights changed under a memoization space)
        must not let stale rows resurface through a cold promotion.
        Source-backed authorities survive, naturally.
        """
        targets = [self.space(space)] if space is not None else list(self._spaces.values())
        for sp in targets:
            self._prefetch_unused += len(sp.inflight)
            sp.inflight.clear()
            sp.hot.clear()
            sp.staging.clear()
            if isinstance(sp.cold, ColdTier):
                sp.cold.clear()

    def stats(self) -> StoreStats:
        tiers = {
            name: TierStats(**t.as_dict()) for name, t in self._tiers.items()
        }
        tiers["cold"].faults = sum(
            sp.cold.faults for sp in self._spaces.values()
            if isinstance(sp.cold, ColdTier)
        )
        return StoreStats(
            tiers=tiers,
            prefetch_issued=self._prefetch_issued,
            prefetch_hits=self._prefetch_hits,
            prefetch_late=self._prefetch_late,
            prefetch_unused=self._prefetch_unused,
            stall_seconds=self._stall_seconds,
            stall_saved_seconds=self._stall_saved,
        )

    def reset_stats(self) -> None:
        for t in self._tiers.values():
            t.__init__()
        self._prefetch_issued = 0
        self._prefetch_hits = 0
        self._prefetch_late = 0
        self._prefetch_unused = 0
        self._stall_seconds = 0.0
        self._stall_saved = 0.0
        self.pinned_pool.reset_stats()
        for sp in self._spaces.values():
            sp.hot.reset_stats()
            sp.staging.reset_stats()
            if isinstance(sp.cold, ColdTier):
                sp.cold.faults = 0

    def clear(self) -> None:
        """Drop everything cached and forget memoization spaces.

        Source-backed spaces keep their registration (they are wiring,
        not scratch) but lose their cached tiers; memo spaces disappear
        entirely, as if never used.
        """
        for name in list(self._spaces):
            sp = self._spaces[name]
            sp.inflight.clear()
            sp.hot.clear()
            sp.staging.clear()
            if isinstance(sp.cold, ColdTier):
                sp.cold.clear()
            if not isinstance(sp.cold, SourceTier):
                del self._spaces[name]
        self._disk_free = 0.0

    def __repr__(self) -> str:
        return (f"TieredFeatureStore(spaces={list(self._spaces)}, "
                f"prefetch_depth={self.config.prefetch_depth})")
