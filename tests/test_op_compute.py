"""Tests for computation operators: coalesce, edge ops, aggregate, propagate."""

import numpy as np
import pytest

import repro.core as tg
from repro.core import op as tgop
from repro import tensor as T

from conftest import check_grad


def make_adj_block(ctx, dstnodes, srcnodes, etimes):
    """Build a block with explicit neighbor rows (one dst per row)."""
    dstnodes = np.asarray(dstnodes)
    blk = tg.TBlock(ctx, 0, dstnodes, np.asarray(etimes, dtype=np.float64))
    blk.set_nbrs(
        np.asarray(srcnodes),
        np.arange(len(srcnodes), dtype=np.int64),
        np.asarray(etimes, dtype=np.float64),
        np.arange(len(dstnodes), dtype=np.int64),
    )
    return blk


class TestCoalesce:
    def test_latest_keeps_max_time_row(self, tiny_ctx):
        blk = make_adj_block(tiny_ctx, [2, 1, 2, 1], [5, 4, 3, 0], [1.0, 2.0, 9.0, 4.0])
        tgop.coalesce(blk, by="latest")
        np.testing.assert_array_equal(blk.dstnodes, [1, 2])
        np.testing.assert_array_equal(blk.srcnodes, [0, 3])
        np.testing.assert_allclose(blk.etimes, [4.0, 9.0])
        np.testing.assert_allclose(blk.dsttimes, [4.0, 9.0])
        np.testing.assert_array_equal(blk.dstindex, [0, 1])

    def test_earliest(self, tiny_ctx):
        blk = make_adj_block(tiny_ctx, [1, 1], [7, 8], [5.0, 3.0])
        tgop.coalesce(blk, by="earliest")
        np.testing.assert_array_equal(blk.srcnodes, [8])
        np.testing.assert_allclose(blk.etimes, [3.0])

    def test_tie_resolves_to_later_row(self, tiny_ctx):
        blk = make_adj_block(tiny_ctx, [1, 1], [7, 8], [5.0, 5.0])
        tgop.coalesce(blk, by="latest")
        np.testing.assert_array_equal(blk.srcnodes, [8])

    def test_from_block_adj(self, tiny_ctx, tiny_graph):
        batch = tg.TBatch.range(tiny_graph, 0, 4)
        blk = tgop.coalesce(batch.block_adj(tiny_ctx), by="latest")
        # Unique endpoints, one row each.
        assert len(np.unique(blk.dstnodes)) == blk.num_dst
        assert blk.num_src == blk.num_dst
        # Each kept row is the latest interaction of that endpoint in batch.
        for i, node in enumerate(blk.dstnodes):
            in_batch = [t for s, d, t in zip(batch.src, batch.dst, batch.ts) if node in (s, d)]
            assert blk.etimes[i] == max(in_batch)

    def test_requires_neighbors(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        with pytest.raises(RuntimeError):
            tgop.coalesce(blk)

    def test_bad_mode(self, tiny_ctx):
        blk = make_adj_block(tiny_ctx, [1], [2], [1.0])
        with pytest.raises(ValueError):
            tgop.coalesce(blk, by="middle")


class TestEdgeOps:
    def _block(self, ctx):
        blk = tg.TBlock(ctx, 0, np.array([0, 1, 2]), np.array([9.0, 9.0, 9.0]))
        blk.set_nbrs(
            np.array([4, 5, 4, 5, 5]),
            np.arange(5, dtype=np.int64),
            np.full(5, 1.0),
            np.array([0, 0, 1, 1, 1]),
        )
        return blk

    def test_edge_softmax_segments_sum_to_one(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        out = tgop.edge_softmax(blk, T.randn(5)).numpy()
        assert abs(out[:2].sum() - 1) < 1e-5
        assert abs(out[2:].sum() - 1) < 1e-5

    def test_edge_softmax_multihead(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        out = tgop.edge_softmax(blk, T.randn(5, 3)).numpy()
        np.testing.assert_allclose(out[:2].sum(axis=0), np.ones(3), rtol=1e-5)

    def test_edge_reduce_sum_mean_max(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        vals = T.tensor(np.arange(5, dtype=np.float32).reshape(5, 1))
        np.testing.assert_allclose(tgop.edge_reduce(blk, vals, "sum").numpy(), [[1], [9], [0]])
        np.testing.assert_allclose(tgop.edge_reduce(blk, vals, "mean").numpy(), [[0.5], [3], [0]])
        np.testing.assert_allclose(tgop.edge_reduce(blk, vals, "max").numpy(), [[1], [4], [0]])

    def test_edge_reduce_empty_dst_gets_zero(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        out = tgop.edge_reduce(blk, T.ones(5, 2), "sum")
        np.testing.assert_allclose(out.numpy()[2], [0, 0])

    def test_src_scatter_mean(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        vals = T.tensor(np.array([[1.0], [2.0], [3.0], [4.0], [6.0]]))
        out = tgop.src_scatter(blk, vals, op="mean")
        uniq, _ = blk.uniq_src()
        np.testing.assert_array_equal(uniq, [4, 5])
        np.testing.assert_allclose(out.numpy(), [[2.0], [4.0]])

    def test_src_scatter_sum(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        out = tgop.src_scatter(blk, T.ones(5, 1), op="sum")
        np.testing.assert_allclose(out.numpy(), [[2], [3]])

    def test_shape_validation(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        with pytest.raises(ValueError):
            tgop.edge_softmax(blk, T.randn(4))
        with pytest.raises(ValueError):
            tgop.edge_reduce(blk, T.randn(4, 2))
        with pytest.raises(ValueError):
            tgop.src_scatter(blk, T.randn(4, 2))
        with pytest.raises(ValueError):
            tgop.edge_reduce(blk, T.randn(5, 2), op="median")

    def test_unsampled_block_rejected(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        for fn in (lambda: tgop.edge_softmax(blk, T.randn(1)),
                   lambda: tgop.edge_reduce(blk, T.randn(1)),
                   lambda: tgop.src_scatter(blk, T.randn(1))):
            with pytest.raises(RuntimeError):
                fn()

    def test_gradients(self, tiny_ctx):
        blk = self._block(tiny_ctx)
        weights = T.tensor(np.arange(5, dtype=np.float32))
        check_grad(lambda s: tgop.edge_softmax(blk, s) * weights, (5,))
        check_grad(lambda v: tgop.edge_reduce(blk, v, "sum").exp(), (5, 2))
        check_grad(lambda v: tgop.src_scatter(blk, v, "mean").exp(), (5, 2))


class TestAggregate:
    def _chain(self, ctx, g, hops=2, batch=(4, 8)):
        head = tg.TBatch.range(g, *batch).block(ctx)
        sampler = tg.TSampler(2, "recent")
        tail = head
        for i in range(hops):
            if i > 0:
                tail = tail.next_block()
            sampler.sample(tail)
        return head, tail

    def test_single_callable_applied_per_block(self, tiny_ctx, tiny_graph):
        head, tail = self._chain(tiny_ctx, tiny_graph)
        calls = []

        def fn(blk):
            calls.append(blk.layer_id)
            return T.zeros(blk.num_dst, 2)

        out = tgop.aggregate(head, fn, key="h")
        assert calls == [1, 0]  # tail first, then head
        assert out.shape == (head.num_dst, 2)

    def test_layer_list_indexed_from_tail(self, tiny_ctx, tiny_graph):
        head, tail = self._chain(tiny_ctx, tiny_graph)
        seen = {}

        def make(tag):
            def fn(blk):
                seen[tag] = blk.layer_id
                return T.zeros(blk.num_dst, 2)
            return fn

        tgop.aggregate(head, [make("input_side"), make("output_side")], key="h")
        assert seen == {"input_side": 1, "output_side": 0}

    def test_wrong_layer_count_rejected(self, tiny_ctx, tiny_graph):
        head, _ = self._chain(tiny_ctx, tiny_graph)
        with pytest.raises(ValueError):
            tgop.aggregate(head, [lambda blk: T.zeros(1, 1)], key="h")

    def test_data_delivery_between_blocks(self, tiny_ctx, tiny_graph):
        head, tail = self._chain(tiny_ctx, tiny_graph)

        def fn(blk):
            return T.tensor(
                np.arange(blk.num_dst, dtype=np.float32).reshape(blk.num_dst, 1)
            )

        tgop.aggregate(head, fn, key="h")
        np.testing.assert_allclose(
            head.dstdata["h"].numpy().reshape(-1), np.arange(head.num_dst)
        )
        np.testing.assert_allclose(
            head.srcdata["h"].numpy().reshape(-1),
            np.arange(head.num_dst, head.num_dst + head.num_src),
        )

    def test_hooks_run_during_aggregate(self, tiny_ctx, tiny_graph):
        head, tail = self._chain(tiny_ctx, tiny_graph)
        tail_hook_ran = []
        tail.register_hook(lambda blk, out: (tail_hook_ran.append(True), out + 1)[1])

        def fn(blk):
            return T.zeros(blk.num_dst, 1)

        tgop.aggregate(head, fn, key="h")
        assert tail_hook_ran == [True]
        np.testing.assert_allclose(head.dstdata["h"].numpy(), np.ones((head.num_dst, 1)))

    def test_mismatched_rows_detected(self, tiny_ctx, tiny_graph):
        head, tail = self._chain(tiny_ctx, tiny_graph)

        def bad_fn(blk):
            return T.zeros(blk.num_dst - 1, 1) if blk is tail else T.zeros(blk.num_dst, 1)

        with pytest.raises(RuntimeError, match="do not match"):
            tgop.aggregate(head, bad_fn, key="h")

    def test_single_block_chain(self, tiny_ctx, tiny_graph):
        head = tg.TBatch.range(tiny_graph, 4, 8).block(tiny_ctx)
        tg.TSampler(2).sample(head)
        out = tgop.aggregate(head, lambda blk: T.ones(blk.num_dst, 3), key="h")
        assert out.shape == (head.num_dst, 3)


class TestPropagate:
    def test_visits_from_block_to_tail(self, tiny_ctx, tiny_graph):
        head = tg.TBatch.range(tiny_graph, 4, 8).block(tiny_ctx)
        tg.TSampler(2).sample(head)
        mid = head.next_block()
        tg.TSampler(2).sample(mid)
        visited = []
        tgop.propagate(head, lambda blk: visited.append(blk.layer_id))
        assert visited == [0, 1]
        visited.clear()
        tgop.propagate(mid, lambda blk: visited.append(blk.layer_id))
        assert visited == [1]
