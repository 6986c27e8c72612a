"""Tests for the optimization operators: dedup, cache, preload, precompute."""

import numpy as np
import pytest

import repro.core as tg
from repro.core import op as tgop
from repro.core.op.dedup import unique_node_times
from repro import nn
from repro import tensor as T
from repro.store import StoreConfig
from repro.tensor.device import runtime


class TestDedup:
    def test_unique_node_times_inverse(self):
        nodes = np.array([3, 1, 3, 1, 2])
        times = np.array([1.0, 2.0, 1.0, 2.0, 3.0])
        un, ut, inv = unique_node_times(nodes, times)
        np.testing.assert_array_equal(un[inv], nodes)
        np.testing.assert_allclose(ut[inv], times)
        assert len(un) == 3

    def test_same_node_different_times_not_merged(self):
        un, _, _ = unique_node_times(np.array([1, 1]), np.array([1.0, 2.0]))
        assert len(un) == 2

    def test_dedup_shrinks_and_restores(self, tiny_ctx):
        nodes = np.array([0, 1, 0, 1, 2])
        times = np.array([5.0, 5.0, 5.0, 5.0, 5.0])
        blk = tg.TBlock(tiny_ctx, 0, nodes, times)
        tgop.dedup(blk)
        assert blk.num_dst == 3
        out = blk.run_hooks(T.tensor(np.arange(3, dtype=np.float32).reshape(3, 1)))
        assert out.shape == (5, 1)
        # Rows for identical (node, time) pairs are identical.
        np.testing.assert_allclose(out.numpy()[0], out.numpy()[2])
        np.testing.assert_allclose(out.numpy()[1], out.numpy()[3])

    def test_dedup_noop_when_all_unique(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0, 1]), np.array([1.0, 2.0]))
        tgop.dedup(blk)
        assert blk.num_dst == 2
        assert blk.hooks == ()

    def test_dedup_after_sampling_rejected(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 3).block(tiny_ctx)
        tg.TSampler(2).sample(blk)
        with pytest.raises(RuntimeError):
            tgop.dedup(blk)

    def test_dedup_gradient_flows_through_inverse(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0, 0, 1]), np.ones(3))
        tgop.dedup(blk)
        computed = T.Tensor(T.randn(2, 2), requires_grad=True)
        out = blk.run_hooks(computed)
        out.sum().backward()
        # Node 0's row feeds two output rows -> gradient 2.
        np.testing.assert_allclose(computed.grad, [[2, 2], [1, 1]])


class TestCache:
    def test_noop_in_training_mode(self, tiny_ctx):
        tiny_ctx.train(True)
        blk = tg.TBlock(tiny_ctx, 0, np.array([0, 1]), np.ones(2))
        tgop.cache(tiny_ctx, blk)
        assert blk.hooks == ()

    def test_miss_then_hit(self, tiny_ctx):
        tiny_ctx.eval()
        nodes, times = np.array([0, 1]), np.ones(2)
        blk1 = tg.TBlock(tiny_ctx, 0, nodes, times)
        tgop.cache(tiny_ctx, blk1)
        assert blk1.num_dst == 2  # all misses on first sight
        first = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        blk1.run_hooks(first)

        blk2 = tg.TBlock(tiny_ctx, 0, nodes, times)
        tgop.cache(tiny_ctx, blk2)
        assert blk2.num_dst == 0  # everything cached
        out = blk2.run_hooks(T.zeros(0, 2))
        np.testing.assert_allclose(out.numpy(), first.numpy())

    def test_partial_hit_merges(self, tiny_ctx):
        tiny_ctx.eval()
        blk1 = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk1)
        blk1.run_hooks(T.tensor([[7.0]]))

        blk2 = tg.TBlock(tiny_ctx, 0, np.array([0, 5]), np.array([1.0, 2.0]))
        tgop.cache(tiny_ctx, blk2)
        assert blk2.num_dst == 1
        np.testing.assert_array_equal(blk2.dstnodes, [5])
        out = blk2.run_hooks(T.tensor([[9.0]]))
        np.testing.assert_allclose(out.numpy(), [[7.0], [9.0]])

    def test_caches_are_per_layer(self, tiny_ctx):
        tiny_ctx.eval()
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk)
        blk.run_hooks(T.tensor([[1.0]]))
        other_layer = tg.TBlock(tiny_ctx, 1, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, other_layer)
        assert other_layer.num_dst == 1  # layer-1 cache knows nothing

    def test_training_switch_clears_cache(self, tiny_ctx):
        tiny_ctx.eval()
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk)
        blk.run_hooks(T.tensor([[1.0]]))
        tiny_ctx.train(True)
        tiny_ctx.eval()
        blk2 = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk2)
        assert blk2.num_dst == 1

    def test_eviction_when_over_capacity(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, store=StoreConfig(hot_capacity=2))
        ctx.eval()
        for node in range(3):
            blk = tg.TBlock(ctx, 0, np.array([node]), np.array([1.0]))
            tgop.cache(ctx, blk)
            blk.run_hooks(T.tensor([[float(node)]]))
        # Node 1 was evicted by node 2: of two rows never re-referenced,
        # the newer one is predicted to be needed last.
        blk = tg.TBlock(ctx, 0, np.array([1]), np.array([1.0]))
        tgop.cache(ctx, blk)
        assert blk.num_dst == 1

    def test_hit_rate_stat(self, tiny_ctx):
        tiny_ctx.eval()
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk)
        blk.run_hooks(T.tensor([[1.0]]))
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk)
        c = tiny_ctx.stats().counters
        assert c["embed:0:hits"] / c["embed:0:lookups"] == 0.5

    def test_cache_after_sampling_rejected(self, tiny_ctx, tiny_graph):
        tiny_ctx.eval()
        blk = tg.TBatch.range(tiny_graph, 0, 3).block(tiny_ctx)
        tg.TSampler(2).sample(blk)
        with pytest.raises(RuntimeError):
            tgop.cache(tiny_ctx, blk)


class TestPreload:
    def test_preload_fills_caches(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, device="cuda")

        def preloaded_chain():
            head = tg.TBatch.range(tiny_graph, 4, 8).block(ctx)
            tg.TSampler(2).sample(head)
            tail = head.next_block()
            tg.TSampler(2).sample(tail)
            tgop.preload(head)
            return head, tail

        # Everything the computation touches is free afterwards: edge
        # features once per unique edge on every hop; on the tail the
        # destinations' raw node features and the sources' once per node.
        head, tail = preloaded_chain()
        before = runtime.transfer_stats.bytes
        head.uniq_efeat(); tail.uniq_efeat()
        tail.dstfeat(); tail.uniq_srcfeat()
        assert runtime.transfer_stats.bytes == before
        # The per-row accessors stay available; they are their own fetch.
        assert tail.efeat().shape[0] == tail.num_src
        assert runtime.transfer_stats.bytes - before == tail.num_src * 3 * 4

        # With memory attached the tail's reads are node-keyed: raw node
        # features, memory and mail are each staged once per unique node.
        tiny_graph.set_memory(4)
        tiny_graph.set_mailbox(4)
        start = runtime.transfer_stats.bytes
        head, tail = preloaded_chain()
        before = runtime.transfer_stats.bytes
        num_uniq = len(tail.uniq_nodes()[0])
        efeat_bytes = (len(head.uniq_eids()[0]) + len(tail.uniq_eids()[0])) * 3 * 4
        assert before - start == efeat_bytes + num_uniq * (4 + 4 + 4) * 4
        head.uniq_efeat(); tail.uniq_efeat()
        tail.uniq_nfeat(); tail.mem_data(); tail.mail()
        assert runtime.transfer_stats.bytes == before

    def test_preload_skips_inner_node_features(self, tiny_graph):
        """Inner blocks receive computed embeddings, so preload must not
        waste transfers gathering their raw node features."""
        ctx = tg.TContext(tiny_graph, device="cuda")
        head = tg.TBatch.range(tiny_graph, 4, 8).block(ctx)
        tg.TSampler(2).sample(head)
        tail = head.next_block()
        tg.TSampler(2).sample(tail)
        tgop.preload(head)
        before = runtime.transfer_stats.bytes
        head.dstfeat()  # not preloaded -> lazily fetched now
        assert runtime.transfer_stats.bytes > before

    def test_preload_uses_pinned_path(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, device="cuda")
        head = tg.TBatch.range(tiny_graph, 4, 8).block(ctx)
        tg.TSampler(2).sample(head)
        tgop.preload(head)
        assert runtime.transfer_stats.pinned_bytes > 0
        assert runtime.transfer_stats.pinned_bytes == runtime.transfer_stats.bytes

    def test_pinned_pool_reuses_buffers(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, device="cuda")
        for _ in range(3):
            head = tg.TBatch.range(tiny_graph, 4, 8).block(ctx)
            tg.TSampler(2).sample(head)
            tgop.preload(head)
        assert ctx.counters["pinned:hits"] > 0


class TestPrecompute:
    def test_zeros_matches_encoder(self, tiny_ctx):
        tiny_ctx.eval()
        enc = nn.TimeEncode(6)
        out = tgop.precomputed_zeros(tiny_ctx, enc, 4)
        np.testing.assert_array_equal(out.numpy(), enc(T.zeros(4)).numpy())

    def test_times_matches_encoder(self, tiny_ctx):
        tiny_ctx.eval()
        enc = nn.TimeEncode(6)
        deltas = np.array([0.0, 5.0, 5.0, 2.5], dtype=np.float32)
        out = tgop.precomputed_times(tiny_ctx, enc, deltas)
        np.testing.assert_array_equal(out.numpy(), enc(T.tensor(deltas)).numpy())

    def test_training_mode_is_differentiable(self, tiny_ctx):
        tiny_ctx.train(True)
        enc = nn.TimeEncode(4)
        out = tgop.precomputed_times(tiny_ctx, enc, np.array([1.0, 2.0]))
        out.sum().backward()
        assert enc.weight.grad is not None

    @staticmethod
    def _count_encoded(enc, monkeypatch):
        """Patch ``enc.encode_raw`` to count the deltas it is handed."""
        encoded, raw = [], enc.encode_raw

        def counting(deltas):
            encoded.append(len(np.asarray(deltas).reshape(-1)))
            return raw(deltas)

        monkeypatch.setattr(enc, "encode_raw", counting)
        return encoded, raw

    def test_eval_mode_reuses_table(self, tiny_ctx, monkeypatch):
        """Repeats inside a call are encoded once; the output is the direct encoding."""
        tiny_ctx.eval()
        enc = nn.TimeEncode(4)
        encoded, raw = self._count_encoded(enc, monkeypatch)
        deltas = np.array([2.0, 1.0, 2.0, 1.0, 2.0], dtype=np.float32)
        out = tgop.precomputed_times(tiny_ctx, enc, deltas)
        assert sum(encoded) == 2
        np.testing.assert_array_equal(out.numpy(), raw(deltas))

    def test_fresh_deltas_bypass_the_dedup_and_keep_nothing(self, tiny_ctx, monkeypatch):
        """No repeats: one straight encode per call, and no state that grows."""
        tiny_ctx.eval()
        enc = nn.TimeEncode(8)
        encoded, raw = self._count_encoded(enc, monkeypatch)
        rng = np.random.default_rng(0)
        for _ in range(100):
            deltas = (rng.random(50) * 1e6).astype(np.float32)
            out = tgop.precomputed_times(tiny_ctx, enc, deltas)
            np.testing.assert_array_equal(out.numpy(), raw(deltas))
        assert encoded == [50] * 100
        table = tiny_ctx.time_table(id(enc))
        assert all(v is None or np.size(v) == 0 for k, v in table.items() if k != "version")

    def test_version_bump_invalidates(self, tiny_ctx):
        tiny_ctx.eval()
        enc = nn.TimeEncode(4)
        tgop.precomputed_times(tiny_ctx, enc, np.array([1.0]))
        enc.weight.data[...] *= 2.0
        enc.mark_updated()
        out = tgop.precomputed_times(tiny_ctx, enc, np.array([1.0]))
        np.testing.assert_allclose(out.numpy(), enc.encode_raw(np.array([1.0])), rtol=1e-5)

    def test_time_window_quantizes(self, tiny_graph, monkeypatch):
        ctx = tg.TContext(tiny_graph, time_window=1.0)
        ctx.eval()
        enc = nn.TimeEncode(4)
        encoded, raw = self._count_encoded(enc, monkeypatch)
        out = tgop.precomputed_times(ctx, enc, np.array([1.1, 0.9, 1.4, 2.6]))
        assert sum(encoded) == 2  # buckets 1 and 3
        np.testing.assert_array_equal(out.numpy(), raw(np.array([1.0, 1.0, 1.0, 3.0])))
        # The table persists across calls: a seen bucket is not encoded again ...
        tgop.precomputed_times(ctx, enc, np.array([0.6, 3.2, 2.0]))
        assert sum(encoded) == 3  # only bucket 2 is new
        # ... until the weights change.
        enc.mark_updated()
        tgop.precomputed_times(ctx, enc, np.array([1.0]))
        assert sum(encoded) == 4

    def test_quantised_table_is_bounded_and_exact(self, tiny_graph, monkeypatch):
        from repro.core.op.precompute import TABLE_BUCKETS

        ctx = tg.TContext(tiny_graph, time_window=0.5)
        ctx.eval()
        enc = nn.TimeEncode(4)
        _, raw = self._count_encoded(enc, monkeypatch)
        rng = np.random.default_rng(1)
        for _ in range(100):
            # Fresh deltas far beyond the table, plus negatives, NaN and inf.
            deltas = (rng.random(40) * 4 * TABLE_BUCKETS - 100.0).astype(np.float32)
            deltas[:3] = [np.nan, np.inf, -0.2]
            with np.errstate(invalid="ignore"):  # cos(inf)
                out = tgop.precomputed_times(ctx, enc, deltas)
                quantised = np.round(deltas / 0.5) * np.float32(0.5)
                np.testing.assert_array_equal(out.numpy(), raw(quantised))
        table = ctx.time_table(id(enc))
        assert len(table["rows"]) == len(table["filled"]) <= TABLE_BUCKETS

    def test_zero_slot_reused_until_version_change(self, tiny_ctx):
        tiny_ctx.eval()
        enc = nn.TimeEncode(4)
        tgop.precomputed_zeros(tiny_ctx, enc, 2)
        slot = tiny_ctx.time_zero_slot(id(enc))
        tgop.precomputed_zeros(tiny_ctx, enc, 3)
        assert tiny_ctx.time_zero_slot(id(enc)) is slot
        enc.mark_updated()
        tgop.precomputed_zeros(tiny_ctx, enc, 1)
        assert tiny_ctx.time_zero_slot(id(enc)) is not slot
