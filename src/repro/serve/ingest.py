"""Hardened streaming ingestion: validate, quarantine, dedup, reorder.

A live event stream is everything the offline datasets are not: events
arrive out of order (bounded by network skew), duplicated (at-least-once
delivery), and malformed (clock bugs, failed joins).  The pipeline turns
that stream back into the clean, totally-ordered sequence the state
committer requires:

1. **Validation** — each pushed batch runs through
   :func:`~repro.serve.events.validate_events`; failures land in a
   quarantine queue carrying a structured
   :class:`~repro.serve.events.RejectReason` plus the offending event.
2. **Idempotent replay dedup** — an event id seen before (released,
   buffered, or quarantined as a duplicate) is dropped, so at-least-once
   redelivery and replayed stream segments cannot double-apply.
3. **Bounded reordering with watermark semantics** — accepted events wait
   in a buffer; the watermark trails the maximum accepted timestamp by
   the configured ``lateness`` bound, and only events at or below the
   watermark are released, in canonical ``(ts, eid)`` order.  An event
   arriving *below* the already-passed watermark is too late to reorder
   and is quarantined as ``LATE_EVENT``.  The buffer is bounded: overflow
   force-advances the watermark over the oldest buffered events so memory
   stays capped under pathological skew.

Every pushed event lands in exactly one ledger column, so the counters
(``ingest:*`` in the counter table) always balance::

    pushed == accepted + duplicates + sum(quarantined:<reason>)

Released sequences are therefore identical for any arrival order whose
skew stays within the lateness bound — the foundation of the
poisoned-stream equivalence guarantee tested in ``tests/test_serve.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from ..core.stats import declare
from ..resilience.hooks import poke as _poke
from .events import EventBatch, RejectReason

__all__ = ["QuarantinedEvent", "IngestPipeline"]

#: counter-table prefix of quarantined events, one key per reject reason.
QUARANTINED = "ingest:quarantined:"


@dataclass(frozen=True)
class QuarantinedEvent:
    """One rejected event with its structured reject reason."""

    eid: int
    src: int
    dst: int
    ts: float
    reason: str
    detail: str = ""


class IngestPipeline:
    """Validating, deduplicating, reordering front door for event streams.

    Args:
        num_nodes: node-id validity bound for incoming events.
        lateness: reordering slack in stream-time units; the watermark is
            ``max_accepted_ts - lateness``.  0 admits only a pre-sorted
            stream (anything out of order is late).
        max_buffer: reordering-buffer capacity in events; overflow
            force-releases the oldest buffered events (watermark advance),
            trading reordering slack for bounded memory.
        quarantine_capacity: quarantined events retained for inspection
            (counters are exact regardless; the queue keeps the most
            recent entries).
        counters: the counter table to count ``ingest:*`` into (a private
            one when None).
    """

    def __init__(
        self,
        num_nodes: int,
        lateness: float = 0.0,
        max_buffer: int = 10000,
        quarantine_capacity: int = 10000,
        counters: Optional[Dict[str, float]] = None,
    ):
        if lateness < 0:
            raise ValueError("lateness must be >= 0")
        if max_buffer < 1:
            raise ValueError("max_buffer must be >= 1")
        self.num_nodes = int(num_nodes)
        self.lateness = float(lateness)
        self.max_buffer = int(max_buffer)
        self.quarantine_capacity = int(quarantine_capacity)
        self.counters = declare(counters, *(f"ingest:{k}" for k in (
            "pushed", "accepted", "released", "duplicates", "forced_releases")))
        #: most recent quarantined events (bounded FIFO).
        self.quarantine: List[QuarantinedEvent] = []
        self.watermark = -np.inf
        self._max_accepted = -np.inf
        self._buffer: List[EventBatch] = []
        self._buffered = 0
        self._seen_eids: Set[int] = set()

    # ---- quarantine --------------------------------------------------------------

    def _quarantine(self, batch: EventBatch, idx: int, reason: str,
                    detail: str = "") -> None:
        key = QUARANTINED + reason
        self.counters[key] = self.counters.get(key, 0) + 1
        self.quarantine.append(
            QuarantinedEvent(
                int(batch.eids[idx]), int(batch.src[idx]), int(batch.dst[idx]),
                float(batch.ts[idx]), reason, detail,
            )
        )
        if len(self.quarantine) > self.quarantine_capacity:
            del self.quarantine[: -self.quarantine_capacity]

    def quarantine_batch(self, batch: EventBatch, detail: str = "") -> None:
        """Quarantine every event of an already-released batch.

        Used by the commit step when a poisoned batch fails the
        staged-row check and is refused: the events are accounted for as
        ``POISONED_BATCH`` rejects rather than silently vanishing from
        the ledger — *moved* out of ``accepted`` / ``released``, so every
        pushed event still sits in exactly one ledger column.
        """
        self.counters["ingest:accepted"] -= len(batch)
        self.counters["ingest:released"] -= len(batch)
        for i in range(len(batch)):
            self._quarantine(batch, i, RejectReason.POISONED_BATCH, detail)

    # ---- ingestion ---------------------------------------------------------------

    def push(self, batch: EventBatch, checked) -> EventBatch:
        """Ingest one arriving batch; returns the events newly released.

        Release order is canonical ``(ts, eid)`` and never regresses
        across calls.  *checked* is :func:`~repro.serve.events.validate_events`' ``(ok,
        reasons)`` for *batch*.  May raise a transient fault from the
        ``serve.ingest`` injection site; the pipeline mutates no state
        before that point, so a retried push is idempotent.
        """
        _poke("serve.ingest")  # fault-injection site (no-op unless armed)
        self.counters["ingest:pushed"] += len(batch)

        ok, reasons = checked
        for idx, reason in reasons.items():
            self._quarantine(batch, idx, reason)

        # Idempotent replay dedup on event id: already-seen ids are
        # dropped (counted, not quarantined — redelivery is normal
        # at-least-once behaviour, not a malformed event).  Duplicates
        # *within* the batch keep their first occurrence.  The set
        # difference iterates the batch's ids, not every id seen.
        keep = np.flatnonzero(ok)
        ids = batch.eids[keep].tolist()
        new = set(ids).difference(self._seen_eids)
        self._seen_eids.update(new)
        first = dict(zip(reversed(ids), reversed(keep.tolist())))  # id -> first position
        fresh = np.sort(np.fromiter(map(first.__getitem__, new), np.int64, len(new)))
        self.counters["ingest:duplicates"] += len(keep) - len(fresh)
        accepted = batch.take(fresh)

        # Late events: below the watermark the reordering window has
        # already closed, so they cannot be merged back into order.
        if len(accepted) and np.isfinite(self.watermark):
            late = accepted.ts < self.watermark
            if late.any():
                for i in np.flatnonzero(late):
                    self._quarantine(
                        accepted, int(i), RejectReason.LATE_EVENT,
                        f"watermark {self.watermark:g}",
                    )
                accepted = accepted.take(~late)

        if len(accepted):
            self.counters["ingest:accepted"] += len(accepted)
            self._buffer.append(accepted)
            self._buffered += len(accepted)
            self._max_accepted = max(self._max_accepted, float(accepted.ts.max()))
            self.watermark = max(self.watermark, self._max_accepted - self.lateness)

        return self._release()

    def flush(self) -> EventBatch:
        """Release every buffered event (end of stream)."""
        self.watermark = np.inf
        out = self._release()
        self.watermark = self._max_accepted
        return out

    # ---- release -----------------------------------------------------------------

    def _release(self) -> EventBatch:
        if not self._buffered:
            return EventBatch.empty()
        pending = EventBatch.concat(self._buffer).sorted_by_time()
        cut = int(np.searchsorted(pending.ts, self.watermark, side="right"))
        overflow = self._buffered - self.max_buffer
        if overflow > cut:
            # Bounded buffer: force the watermark over the oldest events.
            cut = overflow
            self.watermark = float(pending.ts[cut - 1])
            self.counters["ingest:forced_releases"] += overflow
        released = pending.take(np.arange(cut))
        remainder = pending.take(np.arange(cut, len(pending)))
        self._buffer = [remainder] if len(remainder) else []
        self._buffered = len(remainder)
        self.counters["ingest:released"] += len(released)
        return released

    @property
    def buffered(self) -> int:
        """Events accepted and waiting in the reordering buffer."""
        return self._buffered
