"""The one serving request loop, over a small state-backend seam.

:class:`ServeEngine` owns everything a serving deployment does *per
request*, once, driven by the simulated clock:

* :meth:`~ServeEngine.submit` runs each arriving request through
  admission control — a shed request is answered immediately with a
  ``shed`` status and its events are dropped (load shedding sheds
  *work*, not just responses);
* :meth:`~ServeEngine.step` serves one queued request: the degradation
  ladder picks the best rung affordable within the request's remaining
  deadline budget, the link-prediction scores are computed at that rung
  (a faulting kernel falls back to the memory rung), and the request's
  events are pushed through the ingestion pipeline and committed;
* :meth:`~ServeEngine.drain` serves the queue dry and flushes the
  reordering buffer.

Scoring happens *before* the request's own events are applied (the
standard temporal link-prediction protocol: predict the interaction from
state strictly before it), and ingestion/commit is deliberately decoupled
from scoring quality — a request degraded all the way to ``memory`` still
commits its events at full fidelity, so state never degrades even when
responses do.

What the engine does **not** know is where node state lives: a
deployment implements the small seam below (``_before_request``,
``_gather``, ``_commit``, ``_after_drain``, ``_release``).
:class:`~repro.serve.runtime.ServeRuntime` (state in this process) and
:class:`~repro.cluster.coordinator.ServeCluster` (state sharded over
replica groups) are the two backends.  Both commit by the same rule —
:func:`~repro.serve.commit.stage_checked`, then log, then write — and
differ only in where the log and the tables live (one store and one pair
of tables here; quorum-shipped to every member of each touched replica
group there).

Everything observable lands in the shared :class:`TContext`: one counter
table, ``ctx.counters``, that admission, ingestion, the ladder, the
committer and every backend component count into (each event once, where
it happens); per-request latencies (p50/p99 via ``ctx.stats().latency``);
and kernel degradation interplay via ``ctx.record_kernel_fault``.
:meth:`ServeEngine.stats` is ``ctx.stats()``'s snapshot of that table
plus the gauges a backend reads at that moment, and
:func:`ledger_violations` checks the ingest and admission identities in
such a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clock import SimClock
from ..core.batch import TBatch
from ..core.stats import declare
from ..resilience import hooks
from ..resilience.errors import TransientKernelError
from .admission import AdmissionController
from .deadline import LEVELS, DegradationLadder, LadderDecision
from .events import RejectReason, validate_events
from .ingest import QUARANTINED, IngestPipeline

__all__ = ["Request", "RequestResult", "ServeEngine", "ledger_violations"]

#: counter-table key of each rung a request was served below ``full`` at.
DEGRADED = {level: f"serve:degraded:{level}" for level in LEVELS[1:]}

Rows = Tuple[np.ndarray, Optional[np.ndarray]]


def neighbour_sum(dstindex: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-destination sums of *rows*, bit-identical to ``np.add.at``.

    *dstindex* is non-decreasing (a sampler's output) and *counts* its
    ``bincount`` over every destination.  The j-th row of each segment is
    scattered to ``block[j]``, and the blocks are added onto zeros one
    after the other: every destination sees exactly ``add.at``'s sequence
    ``((0 + r0) + r1) + ...``, padded with ``+ 0.0``, which changes no sum
    that starts from ``+0.0``.  It costs ``max(counts)`` full-width adds
    rather than one ufunc call per row.  ``np.add.reduceat`` or a
    ``sum`` over the block axis may add pairwise and round differently.
    """
    within = np.arange(len(dstindex)) - (np.cumsum(counts) - counts)[dstindex]
    block = np.zeros((int(counts.max()), len(counts), rows.shape[1]), dtype=rows.dtype)
    block[within, dstindex] = rows
    out = np.zeros_like(block[0])
    for part in block:
        out += part
    return out


@dataclass
class Request:
    """One serving request: score these events, then apply them."""

    rid: int
    batch: TBatch
    arrival: float
    deadline: float


@dataclass(frozen=True)
class RequestResult:
    """The engine's answer to one request."""

    rid: int
    status: str  # 'ok' | 'shed' | 'timeout'
    level: str  # ladder rung served at ('' when shed)
    scores: Optional[np.ndarray]
    latency: float
    detail: str = ""
    #: per-row validity mask: False marks a score that is not backed by
    #: authoritative state — an endpoint row was zero-filled because its
    #: whole replica group was unreachable, or the event was junk (NaN
    #: score).  None means no state read could be lost: always on a
    #: single runtime (its backend returns ``ok=None``), and for
    #: shed/timeout answers or scores read from a swapped-in model table.
    valid: Optional[np.ndarray] = None


class ServeEngine:
    """Request loop shared by every serving deployment (see module doc).

    Subclasses add their state backend and forward these keyword knobs
    unchanged, so they are declared — and documented — exactly once.

    Args:
        graph: the :class:`~repro.core.graph.TGraph` (static topology used
            for neighborhood sampling).
        ctx: shared :class:`~repro.core.context.TContext` (stats, caches,
            degradation state).
        sampler: :class:`~repro.core.sampler.TSampler` for the sampling
            rungs of the ladder.
        deadline: default per-request budget in simulated seconds.
        lateness: ingestion reordering slack (see
            :class:`~repro.serve.ingest.IngestPipeline`).
        max_queue / shed_policy / rate: admission-control knobs
            (see :class:`~repro.serve.admission.AdmissionController`).

    Each step advances the installed
    :class:`~repro.resilience.FaultInjector` (``with injector:``), if any,
    to the cursor ``(0, request id)``.
    """

    #: newest event time durably committed; backends maintain it.
    committed_watermark: float

    def __init__(
        self,
        graph,
        ctx,
        sampler,
        deadline: float = 1.0e-2,
        lateness: float = 0.0,
        max_queue: int = 64,
        shed_policy: str = "reject-new",
        rate: Optional[float] = None,
    ):
        self.graph = graph
        self.ctx = ctx
        self.sampler = sampler
        self.clock = SimClock()
        self.deadline = float(deadline)
        declare(ctx.counters, "serve:model_swaps", "serve:cache_hits",
                "serve:cache_misses")
        self.ladder = DegradationLadder(
            full_fanout=sampler.num_nbrs, counters=ctx.counters
        )
        self.ingest = IngestPipeline(
            graph.num_nodes, lateness=lateness, counters=ctx.counters,
        )
        self.admission = AdmissionController(
            self.clock, max_queue=max_queue, policy=shed_policy,
            rate=rate, counters=ctx.counters,
        )
        self.results: List[RequestResult] = []
        self._next_rid = 0
        self._closed = False
        #: hot-swappable scoring table (None = score from backend state).
        self._model_table: Optional[np.ndarray] = None
        self.model_version = 0
        self.model_watermark = float("-inf")
        #: rows the current request was served as zeros because their
        #: whole owner was unreachable.
        self._zero_filled = 0
        #: the ``cache`` rung's table: per node, the newest embedding a
        #: sampling rung answered and its time (+inf: never written).
        self._cache_rows: Optional[np.ndarray] = None
        self._cache_times = np.full(graph.num_nodes, np.inf)

    # ---- the state-backend seam --------------------------------------------------

    def _before_request(self) -> None:
        """Housekeeping between requests (default: none)."""

    def _gather(self, nodes: np.ndarray, extra: int) -> Rows:
        """``(rows, ok)``: state rows for *nodes*, and a per-row mask of
        rows whose owner answered — or None when the backend cannot lose
        a row.  *extra* salts the backend's per-read fault decisions."""
        raise NotImplementedError

    def _commit(self, released: TBatch, rid: int) -> None:
        """Durably apply one non-empty released batch, all or nothing."""
        raise NotImplementedError

    def _after_drain(self) -> None:
        """Settle the backend once the queue and buffer are empty."""

    def _release(self) -> None:
        """Free backend resources; called exactly once by :meth:`close`."""

    # ---- model hot swap ----------------------------------------------------------

    def swap_model(
        self,
        table: np.ndarray,
        watermark: Optional[float] = None,
    ) -> int:
        """Atomically install a new scoring table; returns its version.

        The table is a ``(num_nodes, d)`` float32 embedding matrix used
        by every ladder rung *in place of* backend state rows when
        scoring.  Swapping touches only the read path: ingestion, commit,
        memory, mailbox, and the durable logs are untouched, so serve
        state stays bit-identical to a swap-free replay (tested on both
        backends).  The ``cache`` rung's table is emptied because its
        rows were computed under the previous model.

        Args:
            table: the new embedding table (copied defensively); its
                version is the previous one plus one.
            watermark: newest event time the model was trained on; the
                gap to ``committed_watermark`` is the model's staleness,
                reported by :meth:`stats`.
        """
        table = np.asarray(table, dtype=np.float32)
        if table.ndim != 2 or table.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"model table must be (num_nodes={self.graph.num_nodes}, d), "
                f"got {table.shape}"
            )
        self._model_table = table.copy()
        self.model_version += 1
        if watermark is not None:
            self.model_watermark = float(watermark)
        self._cache_rows = None
        self._cache_times.fill(np.inf)
        self.ctx.counters["serve:model_swaps"] += 1
        return self.model_version

    # ---- submission --------------------------------------------------------------

    def submit(
        self,
        batch: TBatch,
        deadline: Optional[float] = None,
        arrival: Optional[float] = None,
    ) -> bool:
        """Offer one request; returns False when it was shed on arrival.

        ``arrival`` backdates the request (a replay harness delivering a
        request the server was too busy to pick up on time); the deadline
        budget runs from the arrival, so queueing delay consumes it.
        """
        now = self.clock.now() if arrival is None else float(arrival)
        req = Request(
            rid=self._next_rid,
            batch=batch,
            arrival=now,
            deadline=now + (self.deadline if deadline is None else float(deadline)),
        )
        self._next_rid += 1
        admitted = self.admission.offer(req)
        for shed in self.admission.drain_shed():
            self.results.append(
                RequestResult(
                    shed.rid, "shed", "", None,
                    self.clock.now() - shed.arrival, "admission control",
                )
            )
        return admitted

    # ---- serving -----------------------------------------------------------------

    def step(self) -> Optional[RequestResult]:
        """Serve the next queued request (None when the queue is idle)."""
        req = self.admission.poll()
        if req is None:
            return None
        injector = hooks.active()
        if injector is not None:
            injector.advance(0, req.rid)
        self._before_request()
        # One validation per request, shared by scoring and ingestion.
        checked = validate_events(req.batch, self.graph.num_nodes)

        remaining = req.deadline - self.clock.now()
        decision = self.ladder.decide(remaining, len(req.batch), self.ctx)
        self.clock.advance(decision.estimated_cost)

        valid = None
        if decision.level == "timeout":
            scores, status, detail = None, "timeout", RejectReason.DEADLINE
        else:
            self._zero_filled = 0
            try:
                scores, valid = self._score(req.batch, decision, req.rid, checked[0])
            except TransientKernelError as err:
                # A faulting kernel mid-score falls back to the always-
                # available memory rung; repeated faults trip the context
                # circuit breaker so later ladder decisions route around
                # the bad kernel entirely.
                self.ctx.record_kernel_fault(err.site)
                decision = LadderDecision(
                    "memory", 0, decision.estimated_cost,
                    f"kernel fault at {err.site}",
                )
                scores, valid = self._score(req.batch, decision, req.rid, checked[0])
            status, detail = "ok", decision.reason
            if decision.level != "full":
                self.ctx.count(DEGRADED[decision.level], 1)
            if self._zero_filled:
                # Only a sharded backend can lose a row, so the count is
                # reported with the cluster's (which declares it).
                self.ctx.count("cluster:partial_results", 1)
                detail = (detail + "; " if detail else "") + (
                    f"partial: {self._zero_filled} row(s) zero-filled"
                )

        # State commits are decoupled from scoring quality: even a
        # timed-out response applies its events, so the stream's state
        # stays complete and a later replay cannot diverge.
        self._ingest_and_commit(req.batch, req.rid, checked)

        latency = self.clock.now() - req.arrival
        self.ctx.record_latency(latency)
        result = RequestResult(
            req.rid, status, decision.level, scores, latency, detail, valid
        )
        self.results.append(result)
        return result

    def drain(self) -> List[RequestResult]:
        """Serve every queued request, flush the reordering buffer, settle.

        After ``drain`` returns the backend is quiescent (see
        ``_after_drain``), so its state reflects the complete committed
        stream.
        """
        while self.step() is not None:
            pass
        tail = self.ingest.flush()
        if len(tail):
            self._commit(tail, self._next_rid)
        self._after_drain()
        return self.results

    # ---- ingestion + commit ------------------------------------------------------

    def _ingest_and_commit(self, batch: TBatch, rid: int, checked) -> None:
        for attempt in range(3):
            try:
                released = self.ingest.push(batch, checked)
                break
            except TransientKernelError as err:
                # push mutates nothing before its fault site — safe retry.
                self.ctx.record_kernel_fault(err.site)
                if attempt == 2:
                    raise
        if len(released):
            self._commit(released, rid)

    # ---- scoring -----------------------------------------------------------------

    def _rows(self, nodes: np.ndarray, extra: int) -> Rows:
        """Scoring rows: the swapped-in model table, else backend state."""
        if self._model_table is not None:
            return self._model_table[nodes], None
        rows, ok = self._gather(nodes, extra)
        if ok is not None:
            self._zero_filled += len(ok) - int(np.count_nonzero(ok))
        return rows, ok

    def _score(self, batch: TBatch, decision, rid: int, ok: np.ndarray):
        """Link-prediction ``(scores, valid)`` for *batch* at the decided rung.

        *ok* is :func:`validate_events`' mask of *batch*, computed once
        per request.  Malformed events (the same checks ingestion
        applies) are unscorable: their score is NaN, marked invalid when
        the result carries a mask, and they are skipped, so a junk event
        crashes neither the sampler nor the table probe.  The events
        themselves are still quarantined later by ingestion.  A
        well-formed event is valid iff *both* its endpoint rows were
        answered (a zero-filled endpoint poisons the dot product, so its
        score is marked).
        """
        if not len(batch):
            return np.empty(0, dtype=np.float32), None
        if not ok.all():
            scores = np.full(len(batch), np.nan, dtype=np.float32)
            valid = None
            if ok.any():
                scores[ok], clean = self._score(batch.take(ok), decision, rid, ok[ok])
                if clean is not None:
                    valid = ok.copy()
                    valid[ok] = clean
            return scores, valid
        nodes = np.concatenate([batch.src, batch.dst])
        times = np.concatenate([batch.ts, batch.ts])
        extra = 104729 * (rid + 1)
        if decision.level in ("full", "reduced"):
            emb, rows_ok = self._embed_sampled(nodes, times, decision.fanout, extra)
        elif decision.level == "cache":
            emb, rows_ok = self._embed_cached(nodes, times, extra)
        else:  # 'memory'
            emb, rows_ok = self._rows(nodes, extra)
        n = len(batch)
        logits = np.sum(emb[:n] * emb[n:], axis=1)
        scores = (1.0 / (1.0 + np.exp(-logits))).astype(np.float32)
        return scores, None if rows_ok is None else rows_ok[:n] & rows_ok[n:]

    def _embed_sampled(self, nodes, times, fanout: int, extra: int) -> Rows:
        """State rows enriched with the mean of sampled temporal neighbors.

        The endpoints and their sampled neighbors are read in one wave
        (one scatter-gather on a cluster): the first ``len(nodes)`` rows
        are the endpoints', the rest the neighbors'.  A failed *neighbor*
        read only reduces the enrichment (that is already the
        reduced-fanout contract), so the validity mask is the endpoint
        rows' own — neighbor loss never invalidates a score.
        """
        res = self.sampler.sample_arrays(
            self.graph.csr(), nodes, times, ctx=self.ctx, num_nbrs=fanout
        )
        n = len(nodes)
        rows, ok = self._rows(np.concatenate([nodes, res.srcnodes]), extra)
        emb = rows[:n].astype(np.float32)
        if ok is not None:
            ok = ok[:n]
        if len(res.srcnodes):
            counts = np.bincount(res.dstindex, minlength=n)
            agg = neighbour_sum(res.dstindex, rows[n:], counts)
            hot = counts > 0
            emb[hot] = 0.5 * (emb[hot] + agg[hot] / counts[hot, None].astype(np.float32))
        self._remember(nodes, times, emb, ok)
        return emb, ok

    def _remember(self, nodes, times, emb, ok) -> None:
        """Write answered endpoints into the ``cache`` rung's table: per
        node, the row of its latest time in the request, ties to the last
        position, in one assignment over unique nodes (not NumPy's order of
        duplicate fancy-index writes).  A zero-filled row is never written."""
        if ok is not None:
            nodes, times, emb = nodes[ok], times[ok], emb[ok]
        if not len(nodes):
            return
        order = np.lexsort((np.arange(len(nodes)), times, nodes))
        last = order[np.append(nodes[order][1:] != nodes[order][:-1], True)]
        if self._cache_rows is None:
            self._cache_rows = np.zeros((self.graph.num_nodes, emb.shape[1]),
                                        dtype=np.float32)
        self._cache_rows[nodes[last]] = emb[last]
        self._cache_times[nodes[last]] = times[last]

    def _embed_cached(self, nodes, times, extra: int) -> Rows:
        """Table-first embeddings: a node's stored row where it is not
        newer than the query (causal); misses fall back to state rows.
        Validity stays the state read's: a hit on an unreachable node
        serves its last answered row, but the score is still marked."""
        rows, ok = self._rows(nodes, extra)
        emb = rows.astype(np.float32)
        hits = self._cache_times[nodes] <= times
        n_hits = int(np.count_nonzero(hits))
        self.ctx.counters["serve:cache_hits"] += n_hits
        self.ctx.counters["serve:cache_misses"] += len(nodes) - n_hits
        if n_hits:
            emb[hits] = self._cache_rows[nodes[hits]]
        return emb, ok

    # ---- reporting / lifecycle ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """``ctx.stats()``'s snapshot of the counter table plus the gauges
        read now.

        Every counter of the deployment is in ``ctx.counters``; backends
        add only read-time gauges through :meth:`_gauges`.
        """
        out: Dict[str, object] = self.ctx.stats().counters
        out.update(self._gauges())
        return out

    def _gauges(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "ingest:buffered": self.ingest.buffered,
            "admission:queued": self.admission.depth,
            "watermark": self.ingest.watermark,
            "committed_watermark": self.committed_watermark,
            "model:version": self.model_version,
        }
        if self._model_table is not None and np.isfinite(self.model_watermark):
            out["model:staleness"] = max(
                0.0, self.committed_watermark - self.model_watermark
            )
        return out

    def close(self) -> None:
        """Release the backend's resources; idempotent.

        Cluster teardown closes every replica — including ones already
        closed by a simulated crash — so double-close must not re-run
        WAL finalization.
        """
        if self._closed:
            return
        self._closed = True
        self._release()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(served={len(self.results)}, "
            f"queue={self.admission.depth}, clock={self.clock.now():.6g})"
        )


def ledger_violations(stats: Dict[str, object]) -> List[str]:
    """The ingest and admission identities a :meth:`ServeEngine.stats`
    snapshot breaks (empty when all balance).

    A served request is one the ladder decided (``ladder:*``, timeouts
    included); ``drop-oldest`` sheds requests it had admitted.
    """
    def total(prefix: str) -> int:
        return sum(v for k, v in stats.items() if k.startswith(prefix))

    def terms(*names: str) -> Dict[str, object]:
        return {name.split(":")[-1]: stats[name] for name in names}

    identities = [
        ("ingestion", terms("ingest:pushed"), {
            **terms("ingest:accepted", "ingest:duplicates"),
            "quarantined": total(QUARANTINED)}),
        ("admission", terms("admission:offered"), terms(
            "admission:admitted", "admission:shed_rate_limited",
            "admission:shed_queue_full")),
        ("admission", terms("admission:admitted"), {
            "served": total("ladder:"),
            **terms("admission:queued", "admission:shed_dropped_oldest")}),
    ]
    return [
        f"{ledger} ledger unbalanced: {lhs}={value} != "
        + " + ".join(f"{k}={v}" for k, v in parts.items())
        for ledger, whole, parts in identities
        for lhs, value in whole.items() if value != sum(parts.values())
    ]
