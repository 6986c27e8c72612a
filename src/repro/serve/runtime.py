"""The single-process serving runtime: node state lives right here.

:class:`ServeRuntime` is the :class:`~repro.serve.engine.ServeEngine`
backend over one in-process ``Memory`` (+ optional ``Mailbox``).  The
request loop is the engine's; this module adds only what is specific to
local state: reads that can never lose a row, commits through
:class:`~repro.serve.commit.StateCommitter` (optionally write-ahead
logged), and the opt-in tiered-feature-store fetch hooks.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .commit import StateCommitter, recover_serve_state
from .engine import ServeEngine
from .events import EventBatch

__all__ = ["ServeRuntime"]


class ServeRuntime(ServeEngine):
    """Hardened online inference over one process's evolving state.

    Args:
        graph / ctx / sampler: as :class:`~repro.serve.engine.ServeEngine`.
        memory: node :class:`~repro.core.memory.Memory` committed into.
        mailbox: optional :class:`~repro.core.mailbox.Mailbox` also
            receiving each event's message.
        durable_dir: optional directory for a
            :class:`~repro.durable.store.DurableStateStore`; when set,
            every committed batch is write-ahead logged before it is
            applied, so a crash at any byte offset recovers to the
            committed prefix.
        durable_fsync: WAL durability policy (``'always'`` / ``'batch'``
            / ``'never'``).
        snapshot_every: commits between full state snapshots (which also
            compact the log); ``None`` disables periodic snapshots.
        recover: replay ``durable_dir`` into memory/mailbox before
            serving (resuming a crashed runtime); recovery details land
            in :meth:`stats` under ``durable:recovered:*``.
        feature_store: route the scoring-table gathers of the sampling
            rungs through the context's tiered
            :class:`~repro.store.tiered.TieredFeatureStore` — the
            ladder then charges each request the store's modeled
            feature-fetch stall (so un-prefetched requests degrade to
            the embedding-cache rung instead of missing deadlines), the
            head of the admission queue is prefetched while the current
            request is served, and commits refresh any cached rows they
            invalidated.  Off by default: the raw gather path is kept
            bit-identical for runtimes that do not opt in.
        **engine: the shared request-loop knobs (``clock``, ``deadline``,
            ``lateness``, ``max_buffer``, ``max_queue``,
            ``shed_policy``, ``rate``, ``burst``, ``injector``), declared
            once on :class:`~repro.serve.engine.ServeEngine`.
    """

    def __init__(
        self,
        graph,
        ctx,
        memory,
        sampler,
        mailbox=None,
        durable_dir: Optional[str] = None,
        durable_fsync: str = "batch",
        snapshot_every: Optional[int] = 256,
        recover: bool = False,
        feature_store: bool = False,
        **engine,
    ):
        super().__init__(graph, ctx, sampler, **engine)
        self.memory = memory
        self.mailbox = mailbox
        self.store = None
        self._recovery: Dict[str, object] = {}
        if durable_dir is not None:
            from ..durable.store import DurableStateStore

            self.store = DurableStateStore(
                durable_dir, fsync=durable_fsync, counters=ctx.counters,
                prefix="durable:",
            )
            if recover:
                self._recovery = recover_serve_state(self.store, memory, mailbox)
        self.committer = StateCommitter(
            memory,
            mailbox=mailbox,
            quarantine=self.ingest.quarantine_batch,
            store=self.store,
            snapshot_every=snapshot_every if self.store is not None else None,
            counters=ctx.counters,
        )
        if self._recovery:
            self.committer.committed_watermark = float(self._recovery["watermark"])
            self.ingest.watermark = max(
                self.ingest.watermark, self.committer.committed_watermark
            )
        self.feature_store = None
        if feature_store:
            self.feature_store = ctx.store
            # One timeline: prefetch ready-times are measured against the
            # same simulated clock the ladder advances.
            self.feature_store.clock = self.clock
            # The source closure reads through _rows(), so a model hot
            # swap automatically rebinds the authority; swap_model still
            # evicts the cached tiers (their rows are stale).
            self.feature_store.register_source(
                "serve:model",
                lambda nodes: self._rows(nodes, 0)[0],
                dim=int(memory.data.data.shape[1]),
            )

    # perf/trace.py patches these three on *this* class (it looks them up
    # in vars(ServeRuntime)), so they must be own attributes, not merely
    # inherited ones.
    submit, step, drain = ServeEngine.submit, ServeEngine.step, ServeEngine.drain

    @property
    def committed_watermark(self) -> float:
        return self.committer.committed_watermark

    # ---- the state-backend seam --------------------------------------------------

    def _gather(self, nodes: np.ndarray, extra: int):
        """Local memory rows; ``ok=None`` — a local read cannot be lost."""
        return self.memory.data.data[nodes], None

    def _commit(self, released: EventBatch, rid: int) -> None:
        self.committer.commit(released)
        if self.feature_store is not None:
            # The commit rewrote these nodes' memory rows; any copies
            # cached in the store's tiers are stale now.
            nodes = self._valid_nodes(released)
            if len(nodes):
                self.feature_store.refresh(
                    nodes, "serve:model", times=self._store_times(len(nodes))
                )

    def _release(self) -> None:
        if self.store is not None:
            self.store.close()

    def swap_model(self, table, version=None, watermark=None) -> int:
        version = super().swap_model(table, version, watermark)
        if self.feature_store is not None:
            # Store keys carry the model version as their time coordinate
            # (see _store_times), so rows staged by an in-flight prefetch
            # under the old version are unreachable the moment the
            # version bumps — even if they land *after* this eviction.
            # The evict then just reclaims their slots.
            self.feature_store.evict("serve:model")
        return version

    # ---- tiered feature store ----------------------------------------------------

    def _store_times(self, n: int) -> np.ndarray:
        """The ``serve:model`` space's time coordinate: the model version.

        Keying cached rows by version makes a hot swap *structurally*
        invalidate them — rows prefetched under version k can never
        satisfy a version k+1 lookup, closing the window where a prefetch
        staged before the swap lands after the swap's eviction.
        """
        return np.full(n, float(self.model_version), dtype=np.float64)

    def _valid_nodes(self, batch: EventBatch) -> np.ndarray:
        """Deduplicated in-range node ids of *batch* (junk-safe)."""
        if not len(batch):
            return np.empty(0, dtype=np.int64)
        nodes = np.concatenate([batch.src, batch.dst])
        nodes = nodes[(nodes >= 0) & (nodes < self.graph.num_nodes)]
        return np.unique(nodes).astype(np.int64, copy=False)

    def _estimate_fetch(self, batch: EventBatch) -> float:
        """Modeled stall to gather this request's scoring rows (0 opted out)."""
        if self.feature_store is None:
            return 0.0
        nodes = self._valid_nodes(batch)
        if not len(nodes):
            return 0.0
        return self.feature_store.estimate_fetch_seconds(
            nodes, times=self._store_times(len(nodes)), space="serve:model"
        )

    def _prefetch_next(self) -> None:
        """Stage the queue head's scoring rows behind the current request."""
        if self.feature_store is None:
            return
        nxt = self.admission.peek()
        if nxt is None:
            return
        nodes = self._valid_nodes(nxt.batch)
        if len(nodes):
            self.feature_store.prefetch(
                nodes, times=self._store_times(len(nodes)), space="serve:model"
            )

    def _fetch_rows(self, nodes: np.ndarray, extra: int):
        """Sampling-rung rows, through the tiered store when opted in."""
        if self.feature_store is None:
            return self._rows(nodes, extra)
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.feature_store.get(
            nodes, times=self._store_times(len(nodes)), space="serve:model"
        ), None

    # ---- reporting ---------------------------------------------------------------

    def _gauges(self) -> Dict[str, object]:
        """The engine's gauges plus the log's size."""
        out = super()._gauges()
        if self.store is not None:
            wal = self.store.wal
            out["durable:wal:segments"] = wal.num_segments
            out["durable:wal:size_bytes"] = wal.size_bytes()
            out["durable:wal:last_lsn"] = wal.last_lsn
        for k, v in self._recovery.items():
            out[f"durable:recovered:{k}"] = v
        return out
