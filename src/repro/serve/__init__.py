"""Robust online serving runtime for continuous-time temporal GNNs.

The training-side framework assumes clean, pre-sorted, deduplicated
datasets; a deployed TGNN faces none of those guarantees.  This package
is the hardened streaming front end that restores them at runtime:

* :mod:`repro.clock` — the simulated clock every latency decision reads
  (deterministic replay, no wall-clock flakiness), re-exported here;
* :mod:`~repro.serve.events` — the event wire format plus structured
  validation (:class:`RejectReason`);
* :mod:`~repro.serve.ingest` — validation/quarantine, idempotent replay
  dedup, and bounded out-of-order reordering with watermark semantics;
* :mod:`~repro.serve.admission` — token-bucket rate limiting, a bounded
  request queue, and reject-new / drop-oldest load shedding;
* :mod:`~repro.serve.deadline` — per-request deadline budgets and the
  degradation ladder (full → reduced fanout → cache → memory-only);
* :mod:`~repro.serve.commit` — watermarked all-or-nothing state commits
  into ``Memory``/``Mailbox`` (check the staged rows, then log, then
  write), optionally write-ahead logged through :mod:`repro.durable`
  (prefix-consistent crash recovery via :func:`recover_serve_state`);
* :mod:`~repro.serve.engine` — :class:`ServeEngine`, the one request
  loop gluing the above into request-in / prediction-out serving, over
  a small state-backend seam; every component counts into one table,
  the context's ``counters``, and :func:`ledger_violations` checks its
  ingest and admission identities;
* :mod:`~repro.serve.runtime` — :class:`ServeRuntime`, the engine over
  in-process state (:class:`repro.cluster.ServeCluster` is the engine
  over sharded, replicated state);
* :mod:`~repro.serve.replay` — stream synthesis, poisoning, and the
  offered-load replay harness shared by the CLI, tests, and benchmarks.

The load-bearing guarantee is **poisoned-stream equivalence**: for any
stream that adds malformed events, duplicates deliveries, and reorders
arrivals within the configured lateness bound, the final committed
``Memory``/``Mailbox`` state is bit-identical to replaying the clean
stream — and every rejected event is accounted for in quarantine stats.
"""

from ..clock import SimClock
from .admission import AdmissionController, TokenBucket
from .commit import (
    ApplyPlan,
    CommitResult,
    StateCommitter,
    apply_plan,
    plan_by_owner,
    plan_updates,
    recover_serve_state,
    replay_state,
    stage_checked,
    stage_updates,
)
from .deadline import LEVELS, CostModel, DegradationLadder, LadderDecision
from .engine import Request, RequestResult, ServeEngine, ledger_violations
from .events import EventBatch, RejectReason, validate_events
from .ingest import IngestPipeline, QuarantinedEvent
from .replay import build_stream, poison_stream, replay, split_batches
from .runtime import ServeRuntime

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "SimClock",
    "CommitResult",
    "StateCommitter",
    "stage_updates",
    "stage_checked",
    "ApplyPlan",
    "plan_updates",
    "plan_by_owner",
    "apply_plan",
    "replay_state",
    "recover_serve_state",
    "CostModel",
    "DegradationLadder",
    "LadderDecision",
    "LEVELS",
    "EventBatch",
    "RejectReason",
    "validate_events",
    "IngestPipeline",
    "QuarantinedEvent",
    "build_stream",
    "poison_stream",
    "replay",
    "split_batches",
    "Request",
    "RequestResult",
    "ServeEngine",
    "ledger_violations",
    "ServeRuntime",
]
