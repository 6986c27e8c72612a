"""Watermarked state commits: check, then log, then write.

Releasing events from ingestion is only half the story — they still have
to be applied to the node :class:`~repro.core.memory.Memory` and
:class:`~repro.core.mailbox.Mailbox`, and a poisoned batch (NaN payload
slipping past validation) must never reach the stores or the log.  Both
serving backends commit a released batch by the same rule:

1. **check** — :func:`stage_checked` passes the ``serve.commit`` fault
   site (bounded retry: nothing has been mutated, so a retry needs no
   restore), stages the endpoint updates (pure functions of event
   content, so any permutation of the same events stages the same rows)
   and checks exactly the rows about to be written; a batch that fails
   is quarantined as ``POISONED_BATCH`` — nothing logged, nothing
   written;
2. **log** — the batch goes to the write-ahead log;
3. **write** — the staged rows are reduced to an :class:`ApplyPlan` and
   written by :func:`apply_plan`.

:class:`StateCommitter` is that rule over one process's tables and one
:class:`~repro.durable.store.DurableStateStore`;
``ServeCluster._commit`` is the same rule with step 2-3 shipped to every
member of each touched replica group.  The committed watermark only
advances past batches that were written.

**Durability.**  Every record in the log is a batch that passed the
check, so recovery (:func:`replay_state`: newest snapshot, then the
``KIND_BATCH`` suffix through the same stage -> plan -> apply path)
needs no veto channel: a process killed at any byte offset recovers to
a state bit-identical to a clean replay of the committed log prefix, and
a batch torn out of the log tail was never acknowledged.  Periodic
snapshots (``snapshot_every``) bound recovery time and let the log
compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..core.batch import TBatch
from ..core.kernels.dedup import canonical_event_order, group_spans
from ..core.state import load_state_image, state_image
from ..core.stats import declare
from ..durable.codec import KIND_BATCH
from ..resilience.errors import TransientKernelError
from ..resilience.hooks import poke as _poke

__all__ = [
    "CommitResult",
    "StateCommitter",
    "stage_updates",
    "StagedBatch",
    "stage_checked",
    "ApplyPlan",
    "plan_updates",
    "plan_by_owner",
    "apply_plan",
    "replay_state",
    "recover_serve_state",
]

#: transient ``serve.commit`` faults retried per batch before one propagates.
COMMIT_RETRIES = 2


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one batch commit."""

    applied: bool
    events: int
    retries: int = 0
    violations: tuple = ()


def _time_encode(ts: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic sinusoidal encoding of timestamps into ``(n, dim)``.

    Used when events carry no payload (or the payload width does not
    match the store): the staged value is still a pure function of event
    content, preserving commit order-invariance.
    """
    freqs = 1.0 / np.power(10.0, 2.0 * np.arange(dim) / max(dim, 1))
    return np.cos(ts[:, None] * freqs[None, :]).astype(np.float32)


def stage_updates(batch: TBatch, dim: int):
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


class StagedBatch(NamedTuple):
    """A released batch staged and checked, ready to log and write."""

    nodes: np.ndarray
    values: np.ndarray
    times: np.ndarray
    #: the batch's greatest event time (what its log record carries).
    watermark: float
    #: transient ``serve.commit`` faults retried on the way here.
    retries: int
    #: why the rows must not be written (empty = safe to log and write).
    violations: Tuple[str, ...]


def stage_checked(batch: TBatch, dim: int) -> StagedBatch:
    """Turn a released, non-empty *batch* into rows that are safe to write.

    The step both serving backends run before anything is logged or
    mutated: the ``serve.commit`` fault site (retried up to
    :data:`COMMIT_RETRIES` times — no state has changed, so a retry
    restores nothing), :func:`stage_updates`, the ``serve.poison`` site
    (corrupts the staged values in place so the quarantine path is
    testable), then a check of exactly the rows about to be written:
    finite values; finite, non-negative times no later than the batch's
    own maximum.  A batch with ``violations`` is the caller's to
    quarantine; it is neither logged nor written.
    """
    retries = 0
    while True:
        try:
            _poke("serve.commit")
            break
        except TransientKernelError:
            if retries == COMMIT_RETRIES:
                raise
            retries += 1
    nodes, values, times = stage_updates(batch, dim)
    _poke("serve.poison", values=values)
    watermark = float(batch.ts.max())
    violations = []
    if not np.isfinite(values).all():
        violations.append("non-finite staged values")
    if not np.isfinite(times).all():
        violations.append("non-finite staged times")
    elif times.min() < 0:
        violations.append("negative staged time")
    elif times.max() > watermark:
        violations.append(
            f"staged time {times.max():g} beyond batch horizon {watermark:g}"
        )
    return StagedBatch(nodes, values, times, watermark, retries, tuple(violations))


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


def plan_updates(nodes, values, times) -> ApplyPlan:
    """Reduce staged ``(nodes, values, times)`` rows to an :class:`ApplyPlan`.

    A pure function: live commit and WAL replay plan one record to the
    same rows.
    """
    order = canonical_event_order(nodes, times, values)
    nodes, values, times = nodes[order], values[order], times[order]
    last = nodes[1:] != nodes[:-1]
    if last.all():  # no node repeats (or no rows at all)
        return ApplyPlan(nodes, values, times, nodes, values, times)
    last = np.flatnonzero(np.append(last, True))
    return ApplyPlan(nodes, values, times, nodes[last], values[last], times[last])


def plan_by_owner(nodes, values, times, owner) -> Dict[int, ApplyPlan]:
    """:func:`plan_updates`, once, for rows that several owners write.

    *owner* says who writes each staged row (a function of its node;
    negative = nobody).  One sort — owner-major, canonical within an owner
    — and one last-event-wins pass make every owner's plan a slice of the
    whole (views; nodes stay global ids; keys ascend).  A plan depends
    only on its owner's rows, so an owner's slice of a whole request's
    plan equals, array for array, the plan of just the events touching it.
    """
    if not len(nodes):
        return {}
    order = canonical_event_order(nodes, times, values)
    order = order[np.argsort(owner[order], kind="stable")]
    nodes, values, times = nodes[order], values[order], times[order]
    last = np.flatnonzero(np.append(nodes[1:] != nodes[:-1], True))  # per node
    win_nodes, win_values, win_times = nodes[last], values[last], times[last]
    owners, starts, stops = group_spans(owner[order])
    wins = np.searchsorted(last, starts + stops[-1:]).tolist()
    return {
        k: ApplyPlan(nodes[a:b], values[a:b], times[a:b],
                     win_nodes[wa:wb], win_values[wa:wb], win_times[wa:wb])
        for k, a, b, wa, wb in zip(owners, starts, stops, wins, wins[1:]) if k >= 0
    }


def apply_plan(plan: ApplyPlan, memory, mailbox=None) -> None:
    """Write *plan* into *memory* (and *mailbox*): the one row-write path.

    A plan's last rows name each node once, so memory and a one-slot
    mailbox take them straight into their ``tables()`` — the bytes
    ``Memory.update`` / ``Mailbox.store`` would write, without resolving
    duplicates there are none of.  A ring mailbox takes every row through
    ``Mailbox.store``, which advances the ring cursors.
    """
    if not len(plan.nodes):
        return
    tables = [memory.tables()]
    if mailbox is not None:
        if mailbox.slots != 1:
            mailbox.store(plan.nodes, plan.values, plan.times)
        else:
            tables.append(mailbox.tables())
    for rows, times in tables:
        rows[plan.win_nodes] = plan.win_values
        times[plan.win_nodes] = plan.win_times


class StateCommitter:
    """Commit released event batches to memory/mailbox: check, log, write.

    Args:
        memory: the node memory store to commit into.
        mailbox: optional mailbox receiving raw messages per endpoint.
        quarantine: optional callback ``(batch, detail)`` invoked when a
            poisoned batch is refused (typically
            :meth:`IngestPipeline.quarantine_batch`, keeping the event
            ledger balanced).
        store: optional :class:`~repro.durable.store.DurableStateStore`;
            when set, every batch that passed the check is WAL-logged
            *before* it is written.
        snapshot_every: with a store attached, write a full state
            snapshot (and compact the log) after every this many
            applied batches; ``None`` disables periodic snapshots.
        counters: the counter table to count ``commit:*`` into (a private
            one when None).  A refused batch's events are counted where
            they are quarantined, not here.
    """

    def __init__(
        self,
        memory,
        mailbox=None,
        quarantine=None,
        store=None,
        snapshot_every: Optional[int] = None,
        counters: Optional[Dict[str, float]] = None,
    ):
        self.memory = memory
        self.mailbox = mailbox
        self.quarantine = quarantine
        self.store = store
        self.snapshot_every = None if snapshot_every is None else int(snapshot_every)
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self._applied_since_snapshot = 0
        self.counters = declare(counters, *(f"commit:{k}" for k in (
            "batches", "events_applied", "retries", "rollbacks")))
        #: greatest event timestamp durably applied.
        self.committed_watermark = -np.inf

    # ---- commit ------------------------------------------------------------------

    def commit(self, batch: TBatch) -> CommitResult:
        """Commit *batch* all-or-nothing; returns whether it was written.

        A batch whose staged rows fail :func:`stage_checked` is
        quarantined (via the ``quarantine`` callback) before the log or
        the stores see it — the caller observes ``applied=False`` with
        the violations, never a partially updated store.
        """
        if not len(batch):
            return CommitResult(applied=True, events=0)
        c = self.counters
        c["commit:batches"] += 1
        staged = stage_checked(batch, self.memory.dim)
        c["commit:retries"] += staged.retries
        if staged.violations:
            c["commit:rollbacks"] += 1
            if self.quarantine is not None:
                self.quarantine(batch, "; ".join(staged.violations))
            return CommitResult(
                applied=False, events=len(batch),
                retries=staged.retries, violations=staged.violations,
            )
        if self.store is not None:
            self.store.log_batch(batch.to_arrays(), {"watermark": staged.watermark})
        apply_plan(
            plan_updates(staged.nodes, staged.values, staged.times),
            self.memory, self.mailbox,
        )
        c["commit:events_applied"] += len(batch)
        self.committed_watermark = max(self.committed_watermark, staged.watermark)
        if self.store is not None and self.snapshot_every is not None:
            self._applied_since_snapshot += 1
            if self._applied_since_snapshot >= self.snapshot_every:
                self.write_snapshot()
        return CommitResult(applied=True, events=len(batch), retries=staged.retries)

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


# ---- recovery ----------------------------------------------------------------------


def replay_state(
    state,
    plan: Callable[[TBatch], ApplyPlan],
    memory,
    mailbox,
    where: str,
) -> Tuple[int, Dict[str, object]]:
    """Rebuild *memory* / *mailbox* from a ``RecoveredState``: the one replay loop.

    Loads the snapshot image (*where* names it in a mismatch error) or
    resets the stores for a clean start, then writes every ``KIND_BATCH`` record of the committed suffix
    through *plan* (the caller's event batch -> :class:`ApplyPlan` rule,
    the same one its live commits use) and :func:`apply_plan`.  Every
    logged batch passed :func:`stage_checked` before it was logged, so
    all of them replay.  Returns the number of batches replayed and the
    high-water mark of every meta key (snapshot meta first, then each
    replayed record's: ``watermark``, ``seq``, ``epoch``).
    """
    if state.snapshot_arrays is not None:
        load_state_image(state.snapshot_arrays, memory, mailbox, where)
    else:
        memory.reset()
        if mailbox is not None:
            mailbox.reset()
    marks = dict(state.snapshot_meta)
    replayed = 0
    for record in state.records:
        if record.kind != KIND_BATCH:
            continue
        apply_plan(plan(TBatch.from_arrays(record.arrays)), memory, mailbox)
        for key, value in record.meta.items():
            marks[key] = max(marks.get(key, value), value)
        replayed += 1
    return replayed, marks


def recover_serve_state(store, memory, mailbox=None) -> Dict[str, object]:
    """Rebuild memory/mailbox from a durable store after a crash.

    :func:`replay_state` under the single runtime's plan — the whole
    node space, no ownership filter — so the recovered state is
    bit-identical to a clean replay of the committed log prefix.
    Idempotent: recovering the same directory twice yields the same
    state.
    """
    state = store.recover()
    replayed, marks = replay_state(
        state,
        lambda batch: plan_updates(*stage_updates(batch, memory.dim)),
        memory, mailbox, "serve snapshot",
    )
    return {
        "batches_replayed": replayed,
        "watermark": float(marks.get("watermark", -np.inf)),
        "snapshot_lsn": state.snapshot_lsn,
        "last_lsn": state.last_lsn,
    }
