"""Stream synthesis, poisoning, and deterministic replay harness.

Shared by the ``serve`` CLI subcommand, the serving tests, and the
throughput benchmark:

* :func:`build_stream` — a clean, time-sorted synthetic event stream;
* :func:`poison_stream` — the same stream plus the failure modes a live
  feed exhibits: malformed junk events, at-least-once redeliveries, and
  bounded out-of-order arrival.  Crucially, poisoning only *adds* garbage
  and *permutes* within a bounded window — it never alters a clean
  event — so a hardened runtime must recover the exact clean state
  (the poisoned-stream equivalence criterion);
* :func:`replay` — drives a :class:`~repro.serve.engine.ServeEngine`
  at a chosen offered-load multiple of its full-quality service rate on
  the simulated clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.batch import TBatch

__all__ = ["build_stream", "poison_stream", "split_batches", "replay"]

#: shares of a poisoned stream's length added as junk and as redeliveries
JUNK_FRAC = 0.05
DUP_FRAC = 0.05
#: arrival order is permuted within consecutive windows of this many events
SHUFFLE_WINDOW = 8


def build_stream(
    num_nodes: int,
    num_events: int,
    payload_dim: Optional[int] = None,
    seed: int = 0,
) -> TBatch:
    """A clean synthetic stream: sorted times (unit mean gap), valid ids,
    finite payload."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.exponential(1.0, size=num_events))
    src = rng.integers(0, num_nodes, size=num_events)
    dst = rng.integers(0, num_nodes, size=num_events)
    payload = (
        rng.standard_normal((num_events, payload_dim)).astype(np.float32)
        if payload_dim is not None
        else None
    )
    return TBatch(np.arange(num_events), src, dst, ts, payload)


def poison_stream(
    stream: TBatch,
    num_nodes: int,
    seed: int = 0,
) -> Tuple[TBatch, float, Dict[str, int]]:
    """Inject stream pathologies without touching any clean event.

    Adds :data:`JUNK_FRAC` malformed events (non-finite/negative timestamps,
    out-of-range/negative node ids, non-finite payload — cycled evenly)
    with fresh event ids, re-delivers :data:`DUP_FRAC` clean events verbatim
    (same event id: at-least-once duplicates), then permutes arrival
    order within consecutive windows of :data:`SHUFFLE_WINDOW` events.

    Returns ``(poisoned, required_lateness, injected)`` where
    ``required_lateness`` is the reordering slack an
    :class:`~repro.serve.ingest.IngestPipeline` needs to absorb the
    shuffle without quarantining any clean event as late, and
    ``injected`` counts each pathology added.
    """
    rng = np.random.default_rng(seed)
    n = len(stream)
    lo = float(stream.ts.min()) if n else 0.0
    hi = float(stream.ts.max()) if n else 1.0
    pdim = None if stream.payload is None else stream.payload.shape[1]

    # --- junk events (fresh eids; each malformed in exactly one way) ---
    n_junk = int(round(JUNK_FRAC * n))
    kinds = ["nan_ts", "neg_ts", "node_range", "neg_node"]
    if pdim is not None:
        kinds.append("nan_payload")
    junk_eids = n + 1_000_000 + np.arange(n_junk)
    junk_src = rng.integers(0, num_nodes, size=n_junk)
    junk_dst = rng.integers(0, num_nodes, size=n_junk)
    junk_ts = rng.uniform(lo, hi, size=n_junk)
    junk_payload = (
        rng.standard_normal((n_junk, pdim)).astype(np.float32)
        if pdim is not None
        else None
    )
    injected: Dict[str, int] = {k: 0 for k in kinds}
    for i in range(n_junk):
        kind = kinds[i % len(kinds)]
        injected[kind] += 1
        if kind == "nan_ts":
            junk_ts[i] = np.nan
        elif kind == "neg_ts":
            junk_ts[i] = -abs(junk_ts[i]) - 1.0
        elif kind == "node_range":
            junk_src[i] = num_nodes + 1 + (i % 7)
        elif kind == "neg_node":
            junk_dst[i] = -1 - (i % 3)
        else:  # nan_payload
            junk_payload[i, 0] = np.inf
    junk = TBatch(junk_eids, junk_src, junk_dst, junk_ts, junk_payload)

    # --- at-least-once redeliveries (verbatim copies, same eid) ---
    n_dup = int(round(DUP_FRAC * n))
    dup_idx = rng.choice(n, size=n_dup, replace=False) if n_dup else np.empty(0, int)
    dups = stream.take(np.sort(dup_idx))
    injected["redelivered"] = n_dup

    merged = TBatch.concat([stream, junk, dups])
    # Place junk/dups near their timestamps so the shuffle bound holds
    # for everything, then permute within bounded windows.
    order = np.argsort(merged.ts, kind="stable")
    # NaN timestamps sort last; scatter them back uniformly so junk is
    # interleaved with the stream rather than trailing it.
    nan_at = np.flatnonzero(~np.isfinite(merged.ts[order]))
    if len(nan_at):
        dest = rng.choice(len(order), size=len(nan_at), replace=False)
        moved = order[nan_at]
        kept = np.delete(order, nan_at)
        out = np.empty_like(order)
        mask = np.zeros(len(order), dtype=bool)
        mask[dest] = True
        out[mask] = moved
        out[~mask] = kept
        order = out
    merged = merged.take(order)

    m = len(merged)
    w = SHUFFLE_WINDOW
    perm = np.arange(m)
    for start in range(0, m, w):
        block = perm[start : start + w]
        rng.shuffle(block)
    shuffled = merged.take(perm)

    # Lateness bound: the widest finite-timestamp span inside any window.
    required_lateness = 0.0
    for start in range(0, m, w):
        span = merged.ts[start : start + w]
        span = span[np.isfinite(span)]
        if len(span) > 1:
            required_lateness = max(required_lateness, float(span.max() - span.min()))
    return shuffled, required_lateness, injected


def split_batches(stream: TBatch, batch_size: int) -> List[TBatch]:
    """Chop a stream into consecutive request batches of *batch_size*."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [
        stream.take(np.arange(start, min(start + batch_size, len(stream))))
        for start in range(0, len(stream), batch_size)
    ]


def replay(runtime, batches: List[TBatch], load: float = 1.0, on_result=None) -> List:
    """Offer *batches* at ``load`` times the full-quality service rate.

    Arrival spacing is the full-rung cost estimate divided by *load*: at
    1x the runtime keeps up serving every request at full quality; at 16x
    requests arrive sixteen times faster than they can be fully served,
    and only the degradation ladder plus admission control keep the
    runtime available.  One request is served per arrival slot; the
    simulated clock carries the queueing delay.  Returns the runtime's
    results after draining.  Each request carries the runtime's default
    deadline.

    ``on_result(runtime, result)`` is invoked once per
    :class:`~repro.serve.engine.RequestResult` as it is produced (shed
    results included), in order — the hook point where a tailing
    continual learner polls the WAL and hot-swaps the model between
    requests.  The callback must not submit requests of its own.
    """
    if load <= 0:
        raise ValueError("load must be positive")
    cost = runtime.ladder.cost_model
    arrivals = []
    t = runtime.clock.now()
    for batch in batches:
        arrivals.append((t, batch))
        t += cost.estimate("full", len(batch)) / load
    i = 0
    notified = 0

    def _notify():
        nonlocal notified
        if on_result is None:
            return
        while notified < len(runtime.results):
            result = runtime.results[notified]
            notified += 1
            on_result(runtime, result)

    # Event-driven single-server loop: deliver every arrival whose
    # scheduled time has passed (backdated, so queueing delay eats the
    # deadline budget), then serve one request; idle-advance otherwise.
    while i < len(arrivals) or runtime.admission.depth:
        now = runtime.clock.now()
        while i < len(arrivals) and arrivals[i][0] <= now:
            at, batch = arrivals[i]
            i += 1
            runtime.submit(batch, arrival=at)
        if runtime.admission.depth:
            runtime.step()
            _notify()
        elif i < len(arrivals):
            runtime.clock.advance_to(arrivals[i][0])
    results = runtime.drain()
    _notify()
    return results
