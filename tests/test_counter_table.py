"""One counter table under the serving stack.

Every component of a serving deployment counts into ``TContext.counters``
and ``ServeEngine.stats()`` is a snapshot of it plus read-time gauges.
These tests pin the rules that make the table trustworthy:

* each event is counted once, by one rule, on both backends (commit
  faults are retries in the table, not kernel-breaker faults);
* the admission ledger identities that hold under every shed policy, and
  :func:`~repro.serve.ledger_violations` as their one check;
* no component below the engine keeps a stats class or surface of its own,
  on the serving side or the training side (core, store, tensor);
* ``reset_stats()`` zeroes the table but keeps its keys, so a live
  deployment keeps counting;
* the table holds counts, not wall seconds, so the same stream gives the
  same table;
* the store ledger: every key looked up is a hit or a miss, and every
  row put is counted in ``bytes_in``;
* the latency reservoir keeps the 8,192 most recent samples.
"""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, ServeCluster
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.resilience import FaultInjector
from repro.store import StoreConfig
from repro.serve import (
    AdmissionController,
    ServeRuntime,
    SimClock,
    build_stream,
    ledger_violations,
    replay,
    split_batches,
)

N, DIM = 40, 4
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _engines():
    """A shed-free runtime and a shed-free 1-shard cluster over one stream."""
    stream = build_stream(N, 300, payload_dim=DIM, seed=5)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    runtime = ServeRuntime(
        g, TContext(g), Memory(N, DIM), TSampler(4, seed=1),
        mailbox=Mailbox(N, DIM),
        deadline=1e9, max_queue=1 << 30,
    )
    g2 = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    cluster = ServeCluster(
        g2, TContext(g2), TSampler(4, seed=1), DIM,
        config=ClusterConfig(num_shards=1),
        deadline=1e9, max_queue=1 << 30,
    )
    return stream, runtime, cluster


def test_commit_faults_are_counted_by_one_rule_on_both_backends():
    """Four scheduled ``serve.commit`` faults are four retries on either
    backend; neither feeds the kernel breaker (``serve.commit`` has no
    fallback path to degrade to)."""
    def injector():
        return FaultInjector(seed=3, schedules={
            "serve.commit": [(0, 1), (0, 2), (0, 4), (0, 7)]})

    stream, runtime, cluster = _engines()
    seen = []
    for engine, retries in ((runtime, "commit:retries"),
                            (cluster, "cluster:commit_retries")):
        with injector(), engine:
            replay(engine, split_batches(stream, 30))
            ctx = engine.ctx
            faults = {k: v for k, v in ctx.stats().counters.items()
                      if k.startswith("kernel_faults:")}
            seen.append((faults, dict(ctx.degraded),
                         engine.stats()[retries]))
    assert seen[0] == seen[1] == ({}, {}, 4)


def test_drop_oldest_admits_what_it_later_sheds():
    ac = AdmissionController(SimClock(), max_queue=2, policy="drop-oldest")
    for i in range(5):
        assert ac.offer(i)
    c = ac.counters
    assert (c["admission:offered"], c["admission:admitted"],
            c["admission:shed_dropped_oldest"]) == (5, 5, 3)
    assert c["admission:admitted"] == 0 + ac.depth + c["admission:shed_dropped_oldest"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    policy=st.sampled_from(["reject-new", "drop-oldest"]),
    rate=st.sampled_from([None, 4.0]),
    ops=st.lists(st.sampled_from(["offer", "offer", "poll", "tick"]), max_size=60),
)
def test_admission_ledger_identities(policy, rate, ops):
    clock = SimClock()
    ac = AdmissionController(clock, max_queue=2, policy=policy, rate=rate)
    served = 0
    for op in ops:
        if op == "offer":
            ac.offer(object())
            ac.drain_shed()
        elif op == "poll":
            served += ac.poll() is not None
        else:
            clock.advance(0.1)
        c = ac.counters
        assert c["admission:offered"] == (c["admission:admitted"]
                                          + c["admission:shed_rate_limited"]
                                          + c["admission:shed_queue_full"])
        assert c["admission:admitted"] == (served + ac.depth
                                           + c["admission:shed_dropped_oldest"])


@pytest.mark.parametrize("policy", ["reject-new", "drop-oldest"])
def test_ledger_violations_reads_the_table(policy):
    stream = build_stream(N, 400, payload_dim=DIM, seed=7)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    rt = ServeRuntime(g, TContext(g), Memory(N, DIM), TSampler(4, seed=1),
                      mailbox=Mailbox(N, DIM), deadline=3e-3, max_queue=3,
                      shed_policy=policy)
    with rt:
        replay(rt, split_batches(stream, 20), load=16.0)
        stats = rt.stats()
    assert sum(v for k, v in stats.items() if k.startswith("admission:shed_")) > 0
    assert ledger_violations(stats) == []
    for key in ("ingest:duplicates", "admission:shed_queue_full",
                "admission:shed_dropped_oldest"):
        broken = dict(stats, **{key: stats[key] + 1})
        assert ledger_violations(broken), key


def test_no_stats_surface_below_the_engine():
    """Components count into the table; only the engine and the context
    snapshot it, and the double counts this table replaced stay gone."""
    surface = re.compile(r"class \w*Stats\b|def as_dict\b|def stats\(|def _bump\b")
    allowed = {("engine.py", "def stats("), ("context.py", "def stats("),
               ("stats.py", "class ContextStats")}
    gone = re.compile(
        r"serve:(shed|admitted|zero_rows|partial|quarantined)\b"
        r"|integrity:injected_flips|_kernel_faults|commit:events_rolled_back"
        r"|CacheLayerStats|PinnedPoolStats|TierStats|StoreStats|tier_bytes|tier_seconds"
    )
    offenders = []
    for pkg in ("serve", "cluster", "durable", "integrity", "core", "store", "tensor"):
        for path in sorted((SRC / pkg).rglob("*.py")):
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if surface.search(line) and not any(
                        path.name == name and text in line for name, text in allowed):
                    offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    for path in sorted(SRC.rglob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if gone.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert offenders == []


@pytest.mark.parametrize("backend", ["runtime", "cluster"])
def test_reset_stats_keeps_a_live_deployment_counting(backend):
    """Zeroing the table keeps every key its components declared: the
    deployment serves on and counts the rest of the stream from zero."""
    stream, runtime, cluster = _engines()
    engine = runtime if backend == "runtime" else cluster
    batches = split_batches(stream, 30)
    with engine:
        replay(engine, batches[:4])
        keys = set(engine.ctx.counters)
        engine.ctx.reset_stats()
        assert set(engine.ctx.counters) == keys
        assert set(engine.ctx.counters.values()) == {0}
        replay(engine, batches[4:])
        stats = engine.stats()
    assert stats["admission:offered"] == len(batches) - 4
    assert stats["ingest:pushed"] == sum(len(b) for b in batches[4:])
    assert ledger_violations(stats) == []


def test_same_stream_gives_the_same_table():
    """Wall seconds are spans, never counters: two fresh runtimes fed one
    stream end with equal tables, key for key — shed-free, and at 16x
    load under a tight deadline, which drives the ``cache`` rung and its
    ``serve:cache_hits`` / ``serve:cache_misses``."""
    for deadline, load in ((1e9, 1.0), (2e-3, 16.0)):
        tables = []
        for _ in range(2):
            stream, runtime, _ = _engines()
            runtime.deadline = deadline
            with runtime:
                replay(runtime, split_batches(stream, 30), load=load)
            tables.append(dict(runtime.ctx.counters))
        assert tables[0] == tables[1]
        c = tables[0]
        looked_up = c["serve:cache_hits"] + c["serve:cache_misses"]
        assert looked_up == 2 * 30 * c.get("ladder:cache", 0)
        assert (c["serve:cache_hits"] > 0) == (load > 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(st.tuples(
    st.sampled_from(["put", "lookup", "evict", "clear"]),
    st.lists(st.integers(0, 5), min_size=1, max_size=4)), max_size=30))
def test_store_ledger_balances(ops):
    """A layer ring's ``embed:0:*`` keys after any interleaving: ``lookups``
    counts every key looked up since the ring was last cleared, ``hits``
    the keys found, and every row found is the row put."""
    ctx = TContext(TGraph([0], [1], [1.0]), store=StoreConfig(hot_capacity=4))
    table = np.arange(12 * DIM, dtype=np.float32).reshape(12, DIM)
    looked = hits = 0
    for op, nodes in ops:
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.zeros(len(nodes))
        if op == "put":
            ctx.embed_cache(0).store(nodes, times, table[nodes])
        elif op == "lookup":
            found, rows = ctx.embed_cache(0).lookup(nodes, times)
            looked += len(nodes)
            hits += int(found.sum())
            if found.any():
                np.testing.assert_array_equal(rows[found], table[nodes][found])
        elif op == "evict":
            ctx.clear_embed_cache()
            looked = hits = 0
        else:
            ctx.reset()
            looked = hits = 0
        c = ctx.stats().counters
        assert (c.get("embed:0:lookups", 0), c.get("embed:0:hits", 0)) == (looked, hits)
        assert c.get("embed:0:entries", 0) <= 4


def test_latency_reservoir_keeps_the_most_recent_window():
    g = TGraph([0], [1], [1.0])
    ctx = TContext(g)
    samples = np.random.default_rng(0).exponential(size=10_000)
    for x in samples:
        ctx.record_latency(x)
    lat = ctx.stats().latency
    window = samples[-8192:]
    assert (lat.count, lat.p50, lat.p99, lat.mean) == (
        10_000, float(np.percentile(window, 50)),
        float(np.percentile(window, 99)), float(window.mean()))
