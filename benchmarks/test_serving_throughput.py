"""Serving-runtime throughput under increasing offered load.

Replays the same synthetic event stream through `repro.serve.ServeRuntime`
at 1x, 4x, and 16x the full-quality service rate and reports, per load
level: achieved events/sec on the simulated clock, the shed ratio, the
degradation-rung mix, and p50/p99 response latency.  The acceptance bar
is *availability*: at 16x load with tight deadlines, every offered
request must still be answered (served or explicitly shed — never hung),
the ingestion ledger must balance, and state must validate cleanly.

Written to ``benchmarks/results/serving_throughput.txt``.
"""

import numpy as np

from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.serve import (
    ServeRuntime,
    build_stream,
    ledger_violations,
    replay,
    split_batches,
)

from conftest import SURROGATE_MODEL, report_table

NUM_NODES = 500
NUM_EVENTS = 8000
DIM = 16
BATCH = 50
DEADLINE = 8e-3
MAX_QUEUE = 16
LOADS = (1.0, 4.0, 16.0)


def run_at_load(stream, load):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=NUM_NODES)
    ctx = TContext(g)
    memory = Memory(NUM_NODES, DIM)
    mailbox = Mailbox(NUM_NODES, DIM)
    runtime = ServeRuntime(
        g, ctx, memory, TSampler(10, seed=3), mailbox=mailbox,
        deadline=DEADLINE, max_queue=MAX_QUEUE,
    )
    start = runtime.clock.now()
    results = replay(runtime, split_batches(stream, BATCH), load=load)
    elapsed = runtime.clock.now() - start
    return runtime, results, elapsed


def rungs(stats):
    """Requests decided per ladder rung."""
    return {k.split(":", 1)[1]: v for k, v in stats.items() if k.startswith("ladder:")}


def shed_total(stats):
    return sum(v for k, v in stats.items() if k.startswith("admission:shed_"))


def test_serving_throughput():
    stream = build_stream(NUM_NODES, NUM_EVENTS, payload_dim=DIM, seed=21)
    offered_requests = -(-NUM_EVENTS // BATCH)
    rows = []
    by_load = {}

    for load in LOADS:
        runtime, results, elapsed = run_at_load(stream, load)
        stats = runtime.stats()
        applied = stats["commit:events_applied"]
        events_per_sec = applied / elapsed if elapsed > 0 else float("inf")
        shed_ratio = shed_total(stats) / stats["admission:offered"]
        lat = runtime.ctx.stats().latency
        rung_mix = "/".join(
            f"{rung}:{count}" for rung, count in sorted(rungs(stats).items())
        )
        rows.append([
            f"{load:g}x",
            f"{applied}",
            f"{events_per_sec:,.0f}",
            f"{shed_ratio:.2f}",
            rung_mix,
            f"{lat.p50 * 1e3:.2f}" if lat else "-",
            f"{lat.p99 * 1e3:.2f}" if lat else "-",
        ])
        by_load[load] = (runtime, results, stats)

    report_table(
        f"Serving throughput: {NUM_EVENTS} events, {BATCH}/request, "
        f"{DEADLINE * 1e3:g}ms deadlines, queue={MAX_QUEUE}",
        ["load", "applied", "events/sec", "shed ratio", "rung mix",
         "p50 (ms)", "p99 (ms)"],
        rows,
        filename="serving_throughput.txt",
        clock="simulated",
        footer=[SURROGATE_MODEL],
    )

    # -- acceptance: availability and consistency at every load level ------
    for load, (runtime, results, stats) in by_load.items():
        assert len(results) == offered_requests, (
            f"{load}x: {len(results)} responses for {offered_requests} requests"
        )
        assert ledger_violations(stats) == []
        assert stats["commit:events_applied"] == stats["ingest:released"]
        assert not runtime.memory.validate()
        assert not runtime.mailbox.validate()
        lat = runtime.ctx.stats().latency
        # deadline discipline: p99 within budget plus one full-rung service
        assert lat.p99 <= DEADLINE + runtime.ladder.cost_model.estimate(
            "full", BATCH)

    # 1x keeps full quality; 16x must shed and/or degrade, not collapse.
    st1 = by_load[1.0][2]
    assert set(rungs(st1)) == {"full"}
    assert shed_total(st1) == 0
    st16 = by_load[16.0][2]
    degraded = sum(n for rung, n in rungs(st16).items() if rung != "full")
    assert shed_total(st16) > 0 or degraded > 0
