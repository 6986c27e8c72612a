"""Tests for TBatch and TBlock: batching, linking, caches, hooks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core as tg
from repro import tensor as T
from repro.tensor.device import runtime


class TestBatching:
    def test_iter_batches_covers_all_edges(self, tiny_graph):
        batches = list(tg.iter_batches(tiny_graph, 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[0].eids[0] == 0 and batches[-1].eids[-1] == 9

    def test_iter_batches_range(self, tiny_graph):
        batches = list(tg.iter_batches(tiny_graph, 3, start=2, stop=8))
        assert [b.eids.tolist() for b in batches] == [[2, 3, 4], [5, 6, 7]]

    def test_bad_batch_size(self, tiny_graph):
        with pytest.raises(ValueError):
            list(tg.iter_batches(tiny_graph, 0))

    def test_range_batch_arrays_are_the_graph_slices(self, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 2, 5)
        for name in ("src", "dst", "ts"):
            np.testing.assert_array_equal(getattr(b, name), getattr(tiny_graph, name)[2:5])
            assert getattr(b, name).dtype == getattr(tiny_graph, name).dtype
        np.testing.assert_array_equal(b.eids, [2, 3, 4])
        assert b.eids.dtype == np.int64
        assert len(b) == 3 and b.g is tiny_graph and b.payload is None

    def test_invalid_range_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            tg.TBatch.range(tiny_graph, 5, 99)

    def test_nodes_and_times_without_negatives(self, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 0, 2)
        assert len(b.nodes()) == 4
        np.testing.assert_allclose(b.times(), np.tile(b.ts, 2))

    def test_nodes_with_negatives(self, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 0, 2)
        b.neg_nodes = np.array([5, 5])
        nodes = b.nodes()
        assert len(nodes) == 6
        np.testing.assert_array_equal(nodes[-2:], [5, 5])
        assert len(b.times()) == 6

    def test_block_head_layout(self, tiny_ctx, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 0, 3)
        b.neg_nodes = np.array([4, 4, 4])
        head = b.block(tiny_ctx)
        assert head.num_dst == 9
        assert head.layer_id == 0
        assert not head.has_nbrs

    def test_block_adj_two_rows_per_edge(self, tiny_ctx, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 0, 3)
        blk = b.block_adj(tiny_ctx)
        assert blk.num_dst == 6
        assert blk.num_src == 6
        # Each source row's node is the opposite endpoint of its dst row.
        for i in range(6):
            e = blk.eids[i]
            pair = {tiny_graph.src[e], tiny_graph.dst[e]}
            assert {blk.dstnodes[i], blk.srcnodes[i]} <= pair


class TestEventArrays:
    """One struct of arrays for graph batches and served requests."""

    def _served(self, n=4, payload=True):
        rng = np.random.default_rng(0)
        return tg.TBatch(np.arange(n)[::-1], rng.integers(0, 9, n), rng.integers(0, 9, n),
                         np.array([3.0, 1.0, 3.0, 2.0])[:n],
                         rng.standard_normal((n, 2)) if payload else None)

    def test_served_batch_casts_and_checks_its_arrays(self):
        b = tg.TBatch([1, 2], [0, 1], [1, 0], [5, 6], [[1, 2], [3, 4]])
        assert [a.dtype for a in (b.eids, b.src, b.dst, b.ts, b.payload)] == [
            np.int64, np.int64, np.int64, np.float64, np.float32]
        assert b.g is None and b.neg_nodes is None and len(b) == 2
        with pytest.raises(ValueError, match="equal lengths"):
            tg.TBatch([1, 2], [0], [1, 0], [5, 6])
        with pytest.raises(ValueError, match="payload rows"):
            tg.TBatch([1, 2], [0, 1], [1, 0], [5, 6], [[1, 2]])

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 1)], ids=["1-D", "3-D"])
    def test_a_payload_that_is_not_2d_is_refused_by_shape(self, shape):
        with pytest.raises(ValueError, match=r"2-D .*" + re.escape(str(shape))):
            tg.TBatch([1, 2], [0, 1], [1, 0], [5, 6], np.zeros(shape))

    def test_serve_alias_is_the_one_class(self):
        import repro.serve
        assert repro.serve.EventBatch is tg.TBatch

    def test_take_keeps_graph_payload_and_negatives(self, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 2, 6)
        b.neg_nodes = np.array([7, 8, 9, 10])
        t = b.take(np.array([3, 1]))
        assert t.g is tiny_graph
        np.testing.assert_array_equal(t.eids, [5, 3])
        np.testing.assert_array_equal(t.neg_nodes, [10, 8])
        np.testing.assert_array_equal(t.src, tiny_graph.src[[5, 3]])
        served = self._served()
        half = served.take(np.array([True, False, True, False]))
        np.testing.assert_array_equal(half.payload, served.payload[[0, 2]])

    def test_concat_round_trips_take(self, tiny_graph):
        b = tg.TBatch.range(tiny_graph, 0, 6)
        b.neg_nodes = np.arange(6) + 20
        parts = [b.take(np.arange(0, 2)), b.take(np.arange(2, 2)), b.take(np.arange(2, 6))]
        whole = tg.TBatch.concat(parts)
        assert whole.g is tiny_graph
        for name in ("eids", "src", "dst", "ts", "neg_nodes"):
            np.testing.assert_array_equal(getattr(whole, name), getattr(b, name))
        served = self._served()
        again = tg.TBatch.concat([served.take(np.arange(2)), served.take(np.arange(2, 4))])
        np.testing.assert_array_equal(again.payload, served.payload)
        assert len(tg.TBatch.concat([])) == 0 and len(tg.TBatch.concat([tg.TBatch.empty()])) == 0

    def test_concat_refuses_a_mix_rather_than_dropping_rows(self, tiny_graph):
        with_rows, without = self._served(), self._served(payload=False)
        for parts in ([with_rows, without], [without, with_rows]):
            with pytest.raises(ValueError, match="carrying a payload"):
                tg.TBatch.concat(parts)
        narrow = tg.TBatch(with_rows.eids, with_rows.src, with_rows.dst, with_rows.ts,
                           with_rows.payload[:, :1])
        with pytest.raises(ValueError, match="payloads of different widths"):
            tg.TBatch.concat([with_rows, narrow])
        neg = tg.TBatch.range(tiny_graph, 0, 2)
        neg.neg_nodes = np.array([5, 5])
        plain = tg.TBatch.range(tiny_graph, 2, 4)
        for parts in ([neg, plain], [plain, neg]):
            with pytest.raises(ValueError, match="carrying negatives"):
                tg.TBatch.concat(parts)
        with pytest.raises(ValueError, match="differ in graph"):
            tg.TBatch.concat([tg.TBatch.range(tiny_graph, 0, 2), without])

    def test_sorted_by_time_breaks_ties_on_event_id(self):
        b = self._served()
        s = b.sorted_by_time()
        np.testing.assert_array_equal(s.ts, [1.0, 2.0, 3.0, 3.0])
        np.testing.assert_array_equal(s.eids, [2, 0, 1, 3])
        np.testing.assert_array_equal(s.payload, b.payload[[1, 3, 2, 0]])

    def test_arrays_round_trip(self):
        for payload in (True, False):
            b = self._served(payload=payload)
            arrays = b.to_arrays()
            assert ("payload" in arrays) is payload
            back = tg.TBatch.from_arrays(arrays)
            for name in ("eids", "src", "dst", "ts"):
                np.testing.assert_array_equal(getattr(back, name), getattr(b, name))
            if payload:
                np.testing.assert_array_equal(back.payload, b.payload)

    def test_blocks_read_the_batch_arrays_with_or_without_graph(self, tiny_ctx, tiny_graph):
        graph_batch = tg.TBatch.range(tiny_graph, 3, 7)
        graph_batch.neg_nodes = np.array([1, 2, 3, 4])
        served = tg.TBatch(graph_batch.eids, graph_batch.src, graph_batch.dst,
                           graph_batch.ts, neg_nodes=graph_batch.neg_nodes)
        for make in (lambda b: b.block(tiny_ctx), lambda b: b.block_adj(tiny_ctx)):
            a, b = make(graph_batch), make(served)
            np.testing.assert_array_equal(a.dstnodes, b.dstnodes)
            np.testing.assert_array_equal(a.dsttimes, b.dsttimes)
            if a.has_nbrs:
                for name in ("srcnodes", "eids", "etimes", "dstindex"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestBlockStructure:
    def _sampled_block(self, ctx, g):
        b = tg.TBatch.range(g, 4, 8)
        head = b.block(ctx)
        return tg.TSampler(3, "recent").sample(head)

    def test_linking_via_next_block(self, tiny_ctx, tiny_graph):
        head = self._sampled_block(tiny_ctx, tiny_graph)
        nxt = head.next_block()
        assert head.next is nxt and nxt.prev is head
        assert nxt.layer_id == 1
        assert nxt.num_dst == head.num_dst + head.num_src
        assert head.tail() is nxt and nxt.head() is head
        assert nxt.next is None

    def test_next_block_requires_sampling(self, tiny_ctx, tiny_graph):
        head = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        with pytest.raises(RuntimeError):
            head.next_block()

    def test_allnodes_layout(self, tiny_ctx, tiny_graph):
        blk = self._sampled_block(tiny_ctx, tiny_graph)
        nodes = blk.allnodes()
        np.testing.assert_array_equal(nodes[: blk.num_dst], blk.dstnodes)
        np.testing.assert_array_equal(nodes[blk.num_dst :], blk.srcnodes)
        times = blk.alltimes()
        np.testing.assert_allclose(times[: blk.num_dst], blk.dsttimes)

    def test_time_deltas_nonnegative(self, tiny_ctx, tiny_graph):
        blk = self._sampled_block(tiny_ctx, tiny_graph)
        assert np.all(blk.time_deltas() >= 0)

    def test_uniq_src_inverse(self, tiny_ctx, tiny_graph):
        blk = self._sampled_block(tiny_ctx, tiny_graph)
        uniq, inv = blk.uniq_src()
        np.testing.assert_array_equal(uniq[inv], blk.srcnodes)

    def test_uniq_nodes_sorted_inverse_and_cached(self, tiny_ctx, tiny_graph):
        blk = self._sampled_block(tiny_ctx, tiny_graph)
        uniq, inv = blk.uniq_nodes()
        assert np.all(np.diff(uniq) > 0)  # sorted, no repeats
        np.testing.assert_array_equal(uniq[inv], blk.allnodes())
        assert inv.dtype == np.int64
        assert blk.uniq_nodes() is blk.uniq_nodes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 200),
           st.integers(1, 6), st.sampled_from(["recent", "uniform"]))
    def test_uniq_results_equal_np_unique(self, seed, num_nodes, num_edges, k, strategy):
        rng = np.random.default_rng(seed)
        g = tg.TGraph(rng.integers(0, num_nodes, num_edges), rng.integers(0, num_nodes, num_edges),
                      np.sort(rng.random(num_edges) * 100), num_nodes=num_nodes)
        lo = int(rng.integers(0, num_edges))
        head = tg.TBatch.range(g, lo, int(rng.integers(lo + 1, num_edges + 1))).block(tg.TContext(g))
        sampler = tg.TSampler(k, strategy, seed=seed)
        for blk in (sampler.sample(head), sampler.sample(head.next_block())):
            for got, ids in [(blk.uniq_src(), blk.srcnodes), (blk.uniq_eids(), blk.eids),
                             (blk.uniq_nodes(), blk.allnodes())]:
                for have, want in zip(got, np.unique(ids, return_inverse=True)):
                    assert have.dtype == want.dtype and have.tobytes() == want.tobytes()

    def test_uniq_nodes_invalidated(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 4).block(tiny_ctx)
        first = blk.uniq_nodes()
        feat = blk.uniq_nfeat()
        blk.set_dst(np.array([5, 5, 2]), np.array([9.0, 9.0, 9.0]))
        after_dst = blk.uniq_nodes()
        assert after_dst is not first
        np.testing.assert_array_equal(after_dst[0], [2, 5])
        assert blk.uniq_nfeat() is not feat and blk.uniq_nfeat().shape[0] == 2
        tg.TSampler(2, "recent").sample(blk)  # set_nbrs
        after_nbrs = blk.uniq_nodes()
        assert after_nbrs is not after_dst
        np.testing.assert_array_equal(after_nbrs[0][after_nbrs[1]], blk.allnodes())
        blk.clear_cache()
        assert blk.uniq_nodes() is not after_nbrs

    def test_set_dst_after_sampling_rejected(self, tiny_ctx, tiny_graph):
        blk = self._sampled_block(tiny_ctx, tiny_graph)
        with pytest.raises(RuntimeError):
            blk.set_dst(np.array([0]), np.array([1.0]))

    def test_set_nbrs_validates_lengths(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        with pytest.raises(ValueError):
            blk.set_nbrs(np.array([0, 1]), np.array([0]), np.array([1.0]), np.array([0]))

    def test_mismatched_dst_lengths_rejected(self, tiny_ctx):
        with pytest.raises(ValueError):
            tg.TBlock(tiny_ctx, 0, np.array([0, 1]), np.array([1.0]))


class TestBlockDataAccess:
    def test_feature_accessors_shapes(self, tiny_ctx, tiny_graph):
        blk = tg.TSampler(2, "recent").sample(tg.TBatch.range(tiny_graph, 5, 9).block(tiny_ctx))
        assert blk.dstfeat().shape == (blk.num_dst, 4)
        assert blk.srcfeat().shape == (blk.num_src, 4)
        assert blk.efeat().shape == (blk.num_src, 3)
        assert blk.nfeat().shape == (blk.num_dst + blk.num_src, 4)

    def test_feature_values_match_graph(self, tiny_ctx, tiny_graph):
        blk = tg.TSampler(2, "recent").sample(tg.TBatch.range(tiny_graph, 5, 9).block(tiny_ctx))
        np.testing.assert_allclose(blk.dstfeat().numpy(), tiny_graph.nfeat.data[blk.dstnodes])
        np.testing.assert_allclose(blk.efeat().numpy(), tiny_graph.efeat.data[blk.eids])
        uniq, inverse = blk.uniq_nodes()
        assert (blk.uniq_nfeat().numpy() == tiny_graph.nfeat.data[uniq]).all()
        assert (blk.uniq_nfeat().numpy()[inverse] == blk.nfeat().numpy()).all()

    def test_accessors_cached(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        assert blk.dstfeat() is blk.dstfeat()
        blk.clear_cache()
        # After a flush the data reloads gracefully.
        assert blk.dstfeat().shape == (blk.num_dst, 4)

    def test_missing_components_raise(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        with pytest.raises(RuntimeError):
            blk.mem_data()
        with pytest.raises(RuntimeError):
            blk.mail()
        with pytest.raises(RuntimeError):
            blk.srcfeat()  # not sampled yet

    def test_memory_accessors_name_the_missing_component(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        for accessor in (blk.mem_data, blk.mem_ts):
            with pytest.raises(RuntimeError, match="graph has no memory component"):
                accessor()
        for accessor in (blk.mail, blk.mail_ts):
            with pytest.raises(RuntimeError, match="graph has no mailbox component"):
                accessor()

    def test_memory_accessors(self, tiny_ctx, tiny_graph):
        """Node-keyed state comes back one row per unique node; ``inverse``
        expands it to the per-row values a direct ``allnodes()`` gather gives."""
        mem = tiny_graph.set_memory(6)
        box = tiny_graph.set_mailbox(5)
        rng = np.random.default_rng(1)
        mem.data.data[...] = rng.standard_normal(mem.data.shape)
        mem.time[...] = rng.random(6)
        box.mail.data[...] = rng.standard_normal(box.mail.shape)
        box.time[...] = rng.random(box.time.shape)
        blk = tg.TSampler(2, "recent").sample(tg.TBatch.range(tiny_graph, 5, 9).block(tiny_ctx))
        uniq, inv = blk.uniq_nodes()
        nodes = blk.allnodes()
        assert len(uniq) < len(nodes)  # the block does repeat nodes
        assert blk.mem_data().shape == (len(uniq), 6)
        assert blk.mail().shape == (len(uniq), 5)
        assert blk.mem_ts().shape == blk.mail_ts().shape == (len(uniq),)
        np.testing.assert_array_equal(blk.mem_data().numpy()[inv], mem.data.data[nodes])
        np.testing.assert_array_equal(blk.mail().numpy()[inv], box.mail.data[nodes])
        np.testing.assert_array_equal(blk.mem_ts()[inv], mem.time[nodes])
        np.testing.assert_array_equal(blk.mail_ts()[inv], box.time[nodes])
        assert blk.mem_data() is blk.mem_data() and blk.mail() is blk.mail()

    def test_gather_transfers_when_host_resident(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, device="cuda")
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(ctx)
        before = runtime.transfer_stats.bytes
        feat = blk.dstfeat()
        assert feat.device.is_cuda
        assert runtime.transfer_stats.bytes > before


class TestHooks:
    def test_hooks_run_lifo_and_clear(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        order = []

        def hook_a(b, out):
            order.append("a")
            return out + 1

        def hook_b(b, out):
            order.append("b")
            return out * 2

        blk.register_hook(hook_a)
        blk.register_hook(hook_b)
        out = blk.run_hooks(T.tensor([1.0]))
        assert order == ["b", "a"]
        # LIFO: (1*2)+1 = 3.
        np.testing.assert_allclose(out.numpy(), [3.0])
        assert blk.hooks == ()

    def test_run_hooks_empty_is_identity(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch.range(tiny_graph, 0, 2).block(tiny_ctx)
        x = T.tensor([1.0])
        assert blk.run_hooks(x) is x
