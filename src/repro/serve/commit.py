"""Watermarked state commits with snapshot-rollback atomicity.

Releasing events from ingestion is only half the story — they still have
to be applied to the node :class:`~repro.core.memory.Memory` and
:class:`~repro.core.mailbox.Mailbox`, and a poisoned batch (NaN payload
slipping past validation, a transient kernel fault mid-write) must never
leave state *partially* updated.  :class:`StateCommitter` makes each
batch apply-all-or-nothing:

1. snapshot memory + mailbox (``backup()``);
2. stage the endpoint updates and reduce them to an :class:`ApplyPlan`
   (pure functions of event content, so any permutation of the same
   events plans the same rows);
3. apply the plan through ``Memory.update`` / ``Mailbox.store``;
4. re-validate the stores; violations roll the snapshot back and send
   the whole batch to quarantine as ``POISONED_BATCH``.

Transient faults from the ``serve.commit`` injection site are retried
after rollback; the committed watermark only advances past batches that
were applied and validated.

**Durability (WAL-then-apply).**  With a
:class:`~repro.durable.store.DurableStateStore` attached, every released
batch is logged to the write-ahead log *before* step 3 applies it, and a
batch rolled back by validation gets an abort record.  A process killed
at any byte offset therefore recovers — via
:func:`recover_serve_state` — to a state bit-identical to a clean replay
of the committed log prefix: a batch whose log record is durable but
whose abort is not is simply re-committed cleanly (its content was
valid; the rollback came from transient in-flight corruption), and a
batch torn out of the log tail was never acknowledged.  Periodic
snapshots (``snapshot_every``) bound recovery time and let the log
compact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..core.kernels.dedup import canonical_event_order
from ..core.state import load_state_image, state_image
from ..durable.codec import KIND_BATCH
from ..resilience.errors import TransientKernelError
from ..resilience.hooks import poke as _poke
from .events import EventBatch

__all__ = [
    "CommitResult",
    "CommitStats",
    "StateCommitter",
    "stage_updates",
    "ApplyPlan",
    "plan_updates",
    "apply_plan",
    "recover_serve_state",
]


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one batch commit."""

    applied: bool
    events: int
    retries: int = 0
    violations: tuple = ()


@dataclass
class CommitStats:
    """Running commit counters."""

    batches: int = 0
    events_applied: int = 0
    retries: int = 0
    rollbacks: int = 0
    events_rolled_back: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def _time_encode(ts: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic sinusoidal encoding of timestamps into ``(n, dim)``.

    Used when events carry no payload (or the payload width does not
    match the store): the staged value is still a pure function of event
    content, preserving commit order-invariance.
    """
    freqs = 1.0 / np.power(10.0, 2.0 * np.arange(dim) / max(dim, 1))
    return np.cos(ts[:, None] * freqs[None, :]).astype(np.float32)


def stage_updates(batch: EventBatch, dim: int):
    """Build ``(nodes, values, times)`` endpoint updates from *batch*.

    Both endpoints of each event receive the event's value row at the
    event's timestamp.  The value row is the payload when its width
    matches the memory dim, else a sinusoidal time encoding — either way
    purely content-derived, so live commits and durable-log replay stage
    bit-identical rows from the same events.
    """
    nodes = np.concatenate([batch.src, batch.dst])
    times = np.concatenate([batch.ts, batch.ts])
    if batch.payload is not None and batch.payload.shape[1] == dim:
        rows = batch.payload
    else:
        rows = _time_encode(batch.ts, dim)
    values = np.concatenate([rows, rows])
    return nodes, values, times


class ApplyPlan(NamedTuple):
    """What one staged batch writes — the single definition, for every caller.

    ``nodes`` / ``values`` / ``times`` are the staged rows in canonical
    ``(node, time, row bytes)`` order (what a multi-slot mailbox rings
    in); ``win_*`` keep each node's last row (what ``Memory`` and a
    one-slot mailbox store).  Stores copy rows out of a plan, so one plan
    can be applied to every member of a replica group.
    """

    nodes: np.ndarray
    values: np.ndarray
    times: np.ndarray
    win_nodes: np.ndarray
    win_values: np.ndarray
    win_times: np.ndarray


def plan_updates(nodes, values, times, local_map=None) -> ApplyPlan:
    """Reduce staged ``(nodes, values, times)`` rows to an :class:`ApplyPlan`.

    With *local_map* (a shard's global -> local row table, ``-1`` = not
    owned) only owned, in-range rows are kept and ``nodes`` become local
    rows; filtering commutes with the per-node duplicate rule, so
    per-shard plans together write what one global plan writes.  A pure
    function: live commit, WAL replay, respawn and shadow replay plan one
    record to the same rows, and members sharing an ownership share it.
    """
    if local_map is not None:
        ok = (nodes >= 0) & (nodes < len(local_map))
        local = np.where(ok, local_map.take(nodes, mode="clip"), -1)
        own = local >= 0
        nodes, values, times = local[own], values[own], times[own]
    order = canonical_event_order(nodes, times, values)
    nodes, values, times = nodes[order], values[order], times[order]
    last = nodes[1:] != nodes[:-1]
    if last.all():  # no node repeats (or no rows at all)
        return ApplyPlan(nodes, values, times, nodes, values, times)
    last = np.flatnonzero(np.append(last, True))
    return ApplyPlan(nodes, values, times, nodes[last], values[last], times[last])


def apply_plan(plan: ApplyPlan, memory, mailbox=None) -> None:
    """Write *plan* into *memory* (and *mailbox*): the one row-write path."""
    if not len(plan.nodes):
        return
    memory.update(plan.win_nodes, plan.win_values, plan.win_times)
    if mailbox is None:
        return
    if mailbox.slots == 1:
        mailbox.store(plan.win_nodes, plan.win_values, plan.win_times)
    else:
        mailbox.store(plan.nodes, plan.values, plan.times)


class StateCommitter:
    """Apply released event batches to memory/mailbox atomically.

    Args:
        memory: the node memory store to commit into.
        mailbox: optional mailbox receiving raw messages per endpoint.
        max_retries: transient-fault retry budget per batch.
        quarantine: optional callback ``(batch, detail)`` invoked when a
            poisoned batch is rolled back (typically
            :meth:`IngestPipeline.quarantine_batch`, keeping the event
            ledger balanced).
        store: optional :class:`~repro.durable.store.DurableStateStore`;
            when set, every batch is WAL-logged *before* application and
            validation rollbacks append abort records.
        snapshot_every: with a store attached, write a full state
            snapshot (and compact the log) after every this many
            successfully applied batches; ``None`` disables periodic
            snapshots.
    """

    def __init__(
        self,
        memory,
        mailbox=None,
        max_retries: int = 2,
        quarantine=None,
        store=None,
        snapshot_every: Optional[int] = None,
    ):
        self.memory = memory
        self.mailbox = mailbox
        self.max_retries = int(max_retries)
        self.quarantine = quarantine
        self.store = store
        self.snapshot_every = None if snapshot_every is None else int(snapshot_every)
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self._applied_since_snapshot = 0
        self.stats = CommitStats()
        #: greatest event timestamp durably applied and validated.
        self.committed_watermark = -np.inf

    # ---- commit ------------------------------------------------------------------

    def _snapshot(self) -> None:
        self.memory.backup()
        if self.mailbox is not None:
            self.mailbox.backup()

    def _rollback(self) -> None:
        self.memory.restore()
        if self.mailbox is not None:
            self.mailbox.restore()

    def _validate(self, max_time: float) -> List[str]:
        errs = list(self.memory.validate(max_time=max_time))
        if self.mailbox is not None:
            errs += [f"mailbox: {e}" for e in self.mailbox.validate()]
        return errs

    def commit(self, batch: EventBatch) -> CommitResult:
        """Apply *batch* atomically; returns whether it stuck.

        On a validation failure after application, state is restored to
        the pre-batch snapshot and the batch is quarantined (via the
        ``quarantine`` callback) — the caller observes ``applied=False``
        with the violations, never a partially updated store.
        """
        if not len(batch):
            return CommitResult(applied=True, events=0)
        self.stats.batches += 1
        batch_max = float(batch.ts.max())
        # WAL-then-apply: the batch delta is durable before any store row
        # changes.  Logged once — transient retries below re-apply the
        # same logged record, they do not re-log it.
        lsn = None
        if self.store is not None:
            lsn = self.store.log_batch(
                batch.to_arrays(), {"watermark": batch_max}
            )
        retries = 0
        while True:
            self._snapshot()
            try:
                _poke("serve.commit")  # transient-fault injection site
                nodes, values, times = stage_updates(batch, self.memory.dim)
                # Poison injection site: corrupts staged values in place so
                # the post-apply validation (and rollback) path is testable.
                _poke("serve.poison", values=values)
                apply_plan(
                    plan_updates(nodes, values, times), self.memory, self.mailbox
                )
            except TransientKernelError:
                self._rollback()
                if retries < self.max_retries:
                    retries += 1
                    self.stats.retries += 1
                    continue
                raise
            violations = self._validate(max_time=batch_max)
            if violations:
                self._rollback()
                self.stats.rollbacks += 1
                self.stats.events_rolled_back += len(batch)
                if lsn is not None:
                    self.store.log_abort(lsn, "; ".join(violations))
                if self.quarantine is not None:
                    self.quarantine(batch, "; ".join(violations))
                return CommitResult(
                    applied=False, events=len(batch),
                    retries=retries, violations=tuple(violations),
                )
            self.stats.events_applied += len(batch)
            self.committed_watermark = max(self.committed_watermark, batch_max)
            if self.store is not None and self.snapshot_every is not None:
                self._applied_since_snapshot += 1
                if self._applied_since_snapshot >= self.snapshot_every:
                    self.write_snapshot()
            return CommitResult(applied=True, events=len(batch), retries=retries)

    def write_snapshot(self) -> Optional[str]:
        """Persist the full applied state to the durable store now."""
        if self.store is None:
            return None
        path = self.store.snapshot(
            state_image(self.memory, self.mailbox),
            {"watermark": float(self.committed_watermark)},
        )
        self._applied_since_snapshot = 0
        return path

    def __repr__(self) -> str:
        return (
            f"StateCommitter(watermark={self.committed_watermark:g}, "
            f"applied={self.stats.events_applied}, rollbacks={self.stats.rollbacks})"
        )


# ---- recovery ----------------------------------------------------------------------


def recover_serve_state(store, memory, mailbox=None) -> Dict[str, object]:
    """Rebuild memory/mailbox from a durable store after a crash.

    Loads the newest intact snapshot (or resets the stores for a clean
    start), then replays the committed, non-aborted ``KIND_BATCH`` suffix
    through the same :func:`stage_updates` -> :func:`plan_updates` ->
    :func:`apply_plan` path live commits use — so the recovered state is
    bit-identical to a clean replay of the committed log prefix.
    Idempotent: recovering the same directory twice yields the same
    state.
    """
    state = store.recover()
    if state.snapshot_arrays is not None:
        load_state_image(state.snapshot_arrays, memory, mailbox, "serve snapshot")
    else:
        memory.reset()
        if mailbox is not None:
            mailbox.reset()
    watermark = float(state.snapshot_meta.get("watermark", -np.inf))
    replayed = 0
    for record in state.records:
        if record.kind != KIND_BATCH:
            continue
        batch = EventBatch.from_arrays(record.arrays)
        if not len(batch):
            continue
        apply_plan(
            plan_updates(*stage_updates(batch, memory.dim)), memory, mailbox
        )
        watermark = max(watermark, float(record.meta.get("watermark", batch.ts.max())))
        replayed += 1
    return {
        "batches_replayed": replayed,
        "aborted_skipped": state.aborted,
        "watermark": watermark,
        "snapshot_lsn": state.snapshot_lsn,
        "last_lsn": state.last_lsn,
    }
