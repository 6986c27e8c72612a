"""One read wave per request: the sampling rungs fetch a request's endpoint
rows and its sampled neighbours' rows in one ``_rows`` call, so a cluster
request makes one scatter-gather (one gather RPC per touched shard).

Fault-free, that wave serves exactly what the two-wave read
(``reference.two_wave_embed``) served, on both backends.  Under faults the
one wave salts its reads differently, so the checks there are the
contract: a lost neighbour row never clears ``valid``, and
``cluster:zero_rows`` is the rows lost in the wave.
"""

from unittest import mock

import numpy as np
import pytest

from reference import two_wave_embed
from repro.cluster import ClusterConfig, ServeCluster
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.resilience import FaultInjector
from repro.serve import ServeRuntime, build_stream, split_batches
from repro.serve.engine import ServeEngine

N = 60
DIM = 8

BACKENDS = {
    "runtime": None,
    "cluster_1x1": ClusterConfig(num_shards=1),
    "cluster_4x3": ClusterConfig(num_shards=4, replication_factor=3),
    "cluster_16x1": ClusterConfig(num_shards=16),
}


def _stream(events=400):
    return build_stream(N, events, payload_dim=DIM, seed=1)


def _engine(stream, config):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    ctx = TContext(g)
    kw = dict(deadline=1.0, max_queue=1 << 30)
    if config is None:
        return ServeRuntime(g, ctx, Memory(N, DIM), TSampler(10, seed=3),
                            mailbox=Mailbox(N, DIM), **kw)
    return ServeCluster(g, ctx, TSampler(10, seed=3), DIM, config=config,
                        stream=stream, **kw)


def _serve(engine, batches, embed):
    """Serve *batches* one request at a time with *embed* as the sampling
    rungs' embedding; per request the result and the rows it zero-filled,
    every embedding, and the final stats."""
    served, embeds = [], []

    def record(self, *args):
        emb, ok = embed(self, *args)
        embeds.append((emb.copy(), None if ok is None else ok.copy()))
        return emb, ok

    with mock.patch.object(ServeEngine, "_embed_sampled", record):
        for batch in batches:
            engine.submit(batch)
            served.append((engine.step(), engine._zero_filled))
        engine.drain()
    return served, embeds, engine.stats()


def _same_mask(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_one_wave_serves_what_two_waves_served(backend):
    """Embeddings, scores, validity masks and zero-filled counts are the
    two-wave read's, bit for bit, and so is the state."""
    stream = _stream()
    batches = split_batches(stream, 20)
    runs = []
    for embed in (ServeEngine._embed_sampled, two_wave_embed):
        with _engine(stream, BACKENDS[backend]) as engine:
            runs.append(_serve(engine, batches, embed))
    (served, embeds, stats), (want_served, want_embeds, want_stats) = runs
    assert len(embeds) == len(want_embeds) == len(batches)
    for (emb, ok), (want_emb, want_ok) in zip(embeds, want_embeds):
        assert emb.tobytes() == want_emb.tobytes() and _same_mask(ok, want_ok)
    for (res, zeros), (want, want_zeros) in zip(served, want_served):
        assert res.level == want.level == "full"
        assert res.scores.tobytes() == want.scores.tobytes()
        assert _same_mask(res.valid, want.valid)
        assert zeros == want_zeros == 0
    # Reads count RPC calls and attempts; nothing else may differ.
    skip = {"rpc:calls", "rpc:attempts"}
    assert {k: v for k, v in stats.items() if k not in skip} == {
        k: v for k, v in want_stats.items() if k not in skip}


def test_a_fault_free_request_makes_one_gather_call_per_touched_shard():
    stream = _stream()
    batches = split_batches(stream, 20)
    with _engine(stream, BACKENDS["cluster_16x1"]) as cluster:
        waves, real_gather, real_call = [], cluster._gather, cluster.rpc.call

        def gather(nodes, extra):
            """One wave: the shards its nodes touch and the RPCs it made."""
            calls = []
            waves.append((np.unique(cluster.router.shard_of(nodes)).tolist(), calls))
            cluster.rpc.call = lambda shard, **kw: calls.append(shard) or real_call(shard, **kw)
            try:
                return real_gather(nodes, extra)
            finally:
                cluster.rpc.call = real_call

        cluster._gather = gather
        for batch in batches:
            del waves[:]
            cluster.submit(batch)
            assert cluster.step().level == "full"
            ((touched, calls),) = waves  # one read wave per request
            assert len(touched) > 1 and sorted(calls) == touched
        assert cluster.ctx.counters["cluster:zero_rows"] == 0


def test_lost_neighbour_rows_never_clear_valid_and_are_counted_once():
    """A whole group down plus dropped sends: the wave's lost rows are the
    request's ``cluster:zero_rows`` and its ``partial`` count, and a score
    is invalid only where one of its endpoint rows was lost."""
    stream = _stream()
    batches = split_batches(stream, 20)
    with _engine(stream, ClusterConfig(num_shards=4)) as cluster:
        for batch in batches[:5]:
            cluster.submit(batch)
            cluster.step()
        for member in cluster.groups[2].members:
            member.crash()
        cluster.supervisor.tick = lambda: None  # keep the group down
        masks, real = [], cluster._gather

        def gather(nodes, extra):
            rows, ok = real(nodes, extra)
            masks.append(ok.copy())
            return rows, ok

        cluster._gather = gather
        c = cluster.ctx.counters
        lost_nbrs_behind_valid = 0
        with FaultInjector(5, rates={"rpc.send.drop": 0.3}):
            for batch in batches[5:]:
                del masks[:]
                before = c["cluster:zero_rows"]
                cluster.submit(batch)
                res = cluster.step()
                assert res.level == "full" and len(masks) == 1
                (ok,) = masks
                n = len(batch)
                lost = int(np.count_nonzero(~ok))
                assert c["cluster:zero_rows"] - before == lost
                assert cluster._zero_filled == lost
                assert (f"partial: {lost} row(s)" in res.detail) == (lost > 0)
                assert np.array_equal(res.valid, ok[:n] & ok[n:2 * n])
                lost_nbrs_behind_valid += int(not ok[2 * n:].all() and res.valid.any())
    assert lost_nbrs_behind_valid > 0
