"""The single-process serving runtime: node state lives right here.

:class:`ServeRuntime` is the :class:`~repro.serve.engine.ServeEngine`
backend over one in-process ``Memory`` (+ optional ``Mailbox``).  The
request loop is the engine's; this module adds only what is specific to
local state: reads that can never lose a row and commits through
:class:`~repro.serve.commit.StateCommitter` (optionally write-ahead
logged).
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
            in :meth:`stats` under ``durable:recovered:*``.  Needs
            ``durable_dir``: there is nothing to recover from without it.
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
        **engine,
    ):
        if recover and durable_dir is None:
            raise ValueError("recover=True needs a durable_dir to recover from")
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

    def _release(self) -> None:
        if self.store is not None:
            self.store.close()

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
