"""Sharded-cluster serving: throughput scaling and time-to-recover.

Replays one synthetic event stream through `repro.cluster.ServeCluster`
at 1/2/4/8/16 shards on the shared simulated clock and reports, per
shard count: achieved events/sec, the speedup over the single-shard
baseline, the p50/p99 response latency, and — with a shard
deterministically killed mid-stream — the measured failover
time-to-recover plus the count of deferred applies redelivered after the
WAL takeover.  The acceptance bar is the scaling target: >= 3x
throughput at 4 shards over 1.

Written to ``benchmarks/results/cluster_scaling.txt``.
"""

import numpy as np

from repro.cluster import ClusterConfig, ServeCluster
from repro.core import TContext, TGraph, TSampler
from repro.resilience import FaultInjector
from repro.serve import build_stream, replay, split_batches

from conftest import SURROGATE_MODEL, report_table

NUM_NODES = 500
NUM_EVENTS = 6000
DIM = 16
BATCH = 50
LOAD = 16.0
SHARDS = (1, 2, 4, 8, 16)
#: measured by `python3 perf/run.py` on its own 2 000-node Zipf stream (medians of
#: alternating parent/change runs, events/s at the reference speed), not by this file
WALL_CLOCK = ("wall clock (perf/run.py, before -> after PR 15): serve_clean 19.4k -> 29.5k, "
              "cluster_s4_f3 3.2k -> 10.8k, cluster_s16_f1 4.6k -> 11.2k events/s")


def run_at_shards(stream, num_shards, kill=False):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=NUM_NODES)
    ctx = TContext(g)
    injector = None
    if kill:
        # deterministically kill shard 0 one third into the replay
        n_batches = -(-NUM_EVENTS // BATCH)
        injector = FaultInjector(
            seed=5,
            schedules={"shard.crash": {(0, n_batches // 3, 0)}},
        )
    cluster = ServeCluster(
        g, ctx, TSampler(10, seed=3), DIM,
        config=ClusterConfig(num_shards=num_shards),
        deadline=1.0, max_queue=1 << 30,
        stream=stream,
    )
    with cluster:
        start = cluster.clock.now()
        if injector is not None:
            with injector:
                results = replay(cluster, split_batches(stream, BATCH),
                                 load=LOAD)
        else:
            results = replay(cluster, split_batches(stream, BATCH), load=LOAD)
        elapsed = cluster.clock.now() - start
        stats = cluster.stats()
    lat = ctx.stats().latency
    return results, stats, elapsed, lat


def test_cluster_scaling():
    stream = build_stream(NUM_NODES, NUM_EVENTS, payload_dim=DIM, seed=31)
    rows = []
    throughput = {}

    for shards in SHARDS:
        results, stats, elapsed, lat = run_at_shards(stream, shards)
        assert all(r.status == "ok" for r in results)
        eps = NUM_EVENTS / elapsed if elapsed > 0 else float("inf")
        throughput[shards] = eps

        _, kstats, _, _ = run_at_shards(stream, shards, kill=shards > 1)
        if shards > 1:
            assert kstats["cluster:failovers"] >= 1
            assert kstats["cluster:recoveries"] >= 1
            assert kstats["cluster:pending_applies"] == 0
            ttr = f"{kstats['cluster:mean_time_to_recover'] * 1e3:.2f}"
            redelivered = str(kstats["cluster:redelivered"])
        else:
            ttr, redelivered = "-", "-"

        rows.append([
            str(shards),
            f"{eps:,.0f}",
            f"{eps / throughput[1]:.2f}x",
            f"{lat.p50 * 1e3:.2f}" if lat else "-",
            f"{lat.p99 * 1e3:.2f}" if lat else "-",
            ttr,
            redelivered,
        ])

    report_table(
        f"Cluster scaling: {NUM_EVENTS} events, {BATCH}/request, "
        f"{LOAD:g}x load, shard 0 killed mid-stream for recovery runs; "
        f"events/sec is the simulated clock — {WALL_CLOCK}",
        ["shards", "events/sec", "speedup", "p50 (ms)", "p99 (ms)",
         "recover (ms)", "redelivered"],
        rows,
        filename="cluster_scaling.txt",
        clock="simulated",
        footer=[SURROGATE_MODEL],
    )

    # the scaling target: >= 3x throughput at 4 shards over 1
    assert throughput[4] >= 3.0 * throughput[1]
    # more shards never lose throughput on this fan-out-bound workload
    assert throughput[16] >= throughput[4]
