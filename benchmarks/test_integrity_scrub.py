"""Anti-entropy scrub overhead and detection latency, by replication factor.

Replays one synthetic event stream through `repro.cluster.ServeCluster`
with the background integrity scrubber at its default interval, at
replication factor 1 / 2 / 3, and reports per factor: completed scrub
cycles, chunks hashed, divergences found on the clean run (must be 0 —
the zero-false-positive bar), wall-clock seconds spent maintaining row
leaves (``digest_ms``: every ``ChunkedDigest.record_rows`` plus the one
hash per replica group and sub-batch in ``ShardReplica.prepare``),
scrubbing and serving, and the scrub overhead as a share of serve time.  A second pass
per factor injects a single out-of-band memory bit flip after the replay
and reports the detect-and-repair outcome (rows repaired, final state
bit-identical to a clean single-runtime replay).

The acceptance gate is scrub overhead <= 10% of serve wall time at the
default interval, with every injected flip detected and repaired.  Scrub
and serve seconds are the ``scrub`` and ``serve`` spans of one
``repro.spans`` recording.

Written to ``benchmarks/results/integrity_scrub.txt``.
"""

import os
import time
from unittest import mock

import repro.cluster.replica as replica_module
from repro.cluster import ClusterConfig, ServeCluster
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.integrity import ChunkedDigest, array_digest
from repro.resilience import apply_bitflip
from repro.serve import ServeRuntime, build_stream, replay, split_batches
from repro.spans import record, span

from conftest import RESULTS_DIR, report_table

NUM_NODES = 500
NUM_EVENTS = 6000
DIM = 16
BATCH = 50
LOAD = 16.0
SHARDS = 4
FACTORS = (1, 2, 3)
OVERHEAD_BUDGET = 0.10
NOTE = (
    "digest_ms: wall time in leaf maintenance during the clean replay (record_rows plus\n"
    "the group's one hash of each sub-batch's plan); it is part of serve_ms.  overhead =\n"
    "scrub_ms / serve_ms, so a cheaper write path raises it without the scrub changing.\n"
)


class _Stopwatch:
    """Wall seconds spent inside the callables it wraps."""

    def __init__(self):
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
        return timed


def _single_digests(stream, batches):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=NUM_NODES)
    ctx = TContext(g)
    mem = Memory(NUM_NODES, DIM)
    mailbox = Mailbox(NUM_NODES, DIM)
    runtime = ServeRuntime(g, ctx, mem, TSampler(10, seed=3),
                           mailbox=mailbox, deadline=1.0, max_queue=1 << 30)
    replay(runtime, batches, load=LOAD)
    return mem.state_digest(), mailbox.state_digest()


def run_at_factor(stream, factor, flip):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=NUM_NODES)
    ctx = TContext(g)
    cluster = ServeCluster(
        g, ctx, TSampler(10, seed=3), DIM,
        config=ClusterConfig(num_shards=SHARDS, replication_factor=factor),
        deadline=1.0, max_queue=1 << 30, stream=stream,
    )
    leaves = _Stopwatch()
    with cluster:
        with mock.patch.object(ChunkedDigest, "record_rows",
                               leaves.wrap(ChunkedDigest.record_rows)), \
                mock.patch.object(replica_module, "row_leaves",
                                  leaves.wrap(replica_module.row_leaves)):
            with record() as rec:
                with span("serve"):
                    results = replay(cluster, split_batches(stream, BATCH), load=LOAD)
                if flip:
                    group = cluster.groups[1]
                    assert apply_bitflip(
                        group.members[factor - 1], ("flip", "memory", 104729, 3))
                    cluster.drain()
        stats = cluster.stats()
        data, times = cluster.memory_image()
        mem_digest = array_digest(data, times)
    assert all(r.status == "ok" for r in results)
    seconds = rec.totals()
    return stats, seconds["serve"], seconds.get("scrub", 0.0), leaves.seconds, mem_digest


def test_integrity_scrub_overhead():
    stream = build_stream(NUM_NODES, NUM_EVENTS, payload_dim=DIM, seed=31)
    batches = split_batches(stream, BATCH)
    clean_mem_digest, _ = _single_digests(stream, batches)
    rows = []

    for factor in FACTORS:
        stats, serve_seconds, scrub_s, digest_seconds, mem_digest = run_at_factor(
            stream, factor, flip=False)
        overhead = scrub_s / serve_seconds
        # clean run: the scrubber worked and stayed silent
        assert stats["integrity:cycles"] >= 1
        assert stats["integrity:chunks_scrubbed"] > 0
        assert stats["integrity:divergences"] == 0
        assert mem_digest == clean_mem_digest
        # the acceptance gate: scrubbing costs <= 10% of serve time
        assert overhead <= OVERHEAD_BUDGET, (
            f"factor {factor}: scrub overhead {overhead:.2%} exceeds "
            f"{OVERHEAD_BUDGET:.0%} of serve wall time"
        )

        fstats, _, _, _, fdigest = run_at_factor(stream, factor, flip=True)
        # the injected flip was detected within one cycle and repaired
        # back to bit-identical state
        assert fstats["integrity:divergences"] >= 1
        assert fstats["integrity:rows_repaired"] >= 1
        assert fdigest == clean_mem_digest

        rows.append([
            factor,
            int(stats["integrity:cycles"]),
            int(stats["integrity:chunks_scrubbed"]),
            int(stats["integrity:divergences"]),
            f"{digest_seconds * 1e3:.2f}",
            f"{scrub_s * 1e3:.2f}",
            f"{serve_seconds * 1e3:.2f}",
            f"{overhead:.2%}",
            f"{int(fstats['integrity:divergences'])}/"
            f"{int(fstats['integrity:rows_repaired'])} repaired",
        ])

    report_table(
        "Integrity scrub: overhead and flip repair at the default interval "
        f"({SHARDS} shards, {LOAD:g}x load, budget {OVERHEAD_BUDGET:.0%})",
        ["factor", "cycles", "chunks", "false_pos", "digest_ms", "scrub_ms",
         "serve_ms", "overhead", "flip_outcome"],
        rows,
        filename="integrity_scrub.txt",
    )
    with open(os.path.join(RESULTS_DIR, "integrity_scrub.txt"), "a") as fh:
        fh.write(NOTE)
