"""Event validation for the streaming ingestion pipeline.

A served request is a :class:`~repro.core.batch.TBatch` of interaction
events, ``(eid, src, dst, ts, payload)``, with no graph attached.
Unlike the offline datasets (pre-sorted, deduplicated, clean), a live
stream interleaves malformed, duplicated, and out-of-order events;
:func:`validate_events` classifies each event with a structured reject
reason so the ingestion pipeline can quarantine rather than crash.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.batch import TBatch

__all__ = ["RejectReason", "validate_events"]


class RejectReason:
    """Structured reject-reason vocabulary for quarantined events."""

    NON_FINITE_TIME = "non_finite_timestamp"
    NEGATIVE_TIME = "negative_timestamp"
    NEGATIVE_NODE = "negative_node_id"
    NODE_OUT_OF_RANGE = "node_id_out_of_range"
    NON_FINITE_PAYLOAD = "non_finite_payload"
    LATE_EVENT = "late_event_below_watermark"
    PAYLOAD_SHAPE = "payload_shape_mismatch"
    POISONED_BATCH = "poisoned_commit_batch"
    DEADLINE = "deadline_exceeded"

    #: every reason the ingestion path itself can assign, in check order.
    VALIDATION_ORDER = (
        NON_FINITE_TIME,
        NEGATIVE_TIME,
        NEGATIVE_NODE,
        NODE_OUT_OF_RANGE,
        NON_FINITE_PAYLOAD,
    )


def validate_events(
    batch: TBatch, num_nodes: int
) -> Tuple[np.ndarray, Dict[int, str]]:
    """Classify each event as acceptable or rejected with a reason.

    Returns ``(ok_mask, reasons)`` where ``reasons`` maps the index of
    each rejected event (position within *batch*) to the first
    :class:`RejectReason` it failed, checked in ``VALIDATION_ORDER``.
    Purely vectorized: one boolean mask per reason, combined by priority.
    """
    n = len(batch)
    ok = np.ones(n, dtype=bool)
    reasons: Dict[int, str] = {}
    if n == 0:
        return ok, reasons

    finite_ts = np.isfinite(batch.ts)
    checks: List[Tuple[str, np.ndarray]] = [
        (RejectReason.NON_FINITE_TIME, ~finite_ts),
        (RejectReason.NEGATIVE_TIME, finite_ts & (batch.ts < 0)),
        (RejectReason.NEGATIVE_NODE, (batch.src < 0) | (batch.dst < 0)),
        (
            RejectReason.NODE_OUT_OF_RANGE,
            (batch.src >= num_nodes) | (batch.dst >= num_nodes),
        ),
    ]
    if batch.payload is not None:
        checks.append(
            (RejectReason.NON_FINITE_PAYLOAD, ~np.isfinite(batch.payload).all(axis=1))
        )
    for reason, bad in checks:
        fresh = bad & ok
        ok &= ~bad
        for i in np.flatnonzero(fresh):
            reasons[int(i)] = reason
    return ok, reasons
