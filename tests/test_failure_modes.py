"""Failure-injection tests: clean errors on misuse and degenerate inputs."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.core import op as tgop
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, TGN, OptFlags


class TestGraphMisuse:
    def test_featureless_graph_fails_cleanly_in_tgat(self):
        g = tg.TGraph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=4, dim_edge=4, dim_time=4, dim_embed=4,
                     num_layers=1, num_nbrs=2)
        batch = tg.TBatch.range(g, 0, 2)
        batch.neg_nodes = np.array([2, 2])
        with pytest.raises(RuntimeError, match="node features"):
            model(batch)

    def test_tgn_without_memory_component(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()  # no memory/mailbox attached
        ctx = tg.TContext(g)
        model = TGN(ctx, dim_node=172, dim_edge=172, dim_time=4, dim_embed=4,
                    dim_mem=4, num_layers=1, num_nbrs=2)
        batch = tg.TBatch.range(g, 0, 10)
        batch.neg_nodes = np.zeros(10, dtype=np.int64)
        with pytest.raises(RuntimeError, match="mailbox|memory"):
            model(batch)

    def test_sampling_on_out_of_range_node_fails(self):
        g = tg.TGraph([0], [1], [1.0])
        ctx = tg.TContext(g)
        blk = tg.TBlock(ctx, 0, np.array([99]), np.array([1.0]))
        with pytest.raises(IndexError):
            tg.TSampler(2).sample(blk)


class TestDegenerateStreams:
    def test_all_edges_same_timestamp(self):
        g = tg.TGraph([0, 1, 2], [1, 2, 0], [5.0, 5.0, 5.0])
        ctx = tg.TContext(g)
        blk = tg.TBlock(ctx, 0, np.array([0, 1]), np.array([5.0, 5.0]))
        tg.TSampler(3).sample(blk)
        # Strictly-earlier rule: nothing visible at t == 5.
        assert blk.num_src == 0

    def test_single_edge_graph_trains(self):
        g = tg.TGraph([0], [1], [1.0], num_nodes=3)
        g.set_nfeat(np.ones((3, 4), dtype=np.float32))
        g.set_efeat(np.ones((1, 2), dtype=np.float32))
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=4, dim_edge=2, dim_time=4, dim_embed=4,
                     num_layers=1, num_nbrs=2)
        batch = tg.TBatch.range(g, 0, 1)
        batch.neg_nodes = np.array([2])
        pos, neg = model(batch)
        loss = nn.bce_with_logits(pos, T.ones(1)) + nn.bce_with_logits(neg, T.zeros(1))
        loss.backward()
        assert np.isfinite(loss.item())

    def test_batch_of_one_edge(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=4, dim_embed=4,
                     num_layers=2, num_nbrs=3, opt=OptFlags.all())
        batch = tg.TBatch.range(g, 1000, 1001)
        batch.neg_nodes = np.array([5])
        pos, neg = model(batch)
        assert pos.shape == (1,) and neg.shape == (1,)

    def test_first_batch_has_no_history(self):
        """The very first chronological batch sees empty neighborhoods."""
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=4, dim_embed=4,
                     num_layers=2, num_nbrs=3)
        batch = tg.TBatch.range(g, 0, 5)
        batch.neg_nodes = np.arange(5)
        pos, neg = model(batch)
        assert np.all(np.isfinite(pos.numpy()))


class TestEmptyGraphSampling:
    def test_kernel_sampling_on_edgeless_graph(self):
        """An edgeless CSR yields zero rows from the kernel, no crash."""
        from repro.core.kernels import temporal_sample

        indptr = np.zeros(6, dtype=np.int64)  # 5 nodes, no edges
        empty_i = np.empty(0, dtype=np.int64)
        empty_t = np.empty(0, dtype=np.float64)
        res = temporal_sample(indptr, empty_i, empty_i, empty_t,
                              np.array([0, 3, 4]), np.array([1.0, 2.0, 3.0]), k=4)
        assert res.num_rows == 0
        assert res.dstindex.dtype == np.int64

    def test_kernel_sampling_with_no_queries(self):
        from repro.core.kernels import temporal_sample

        ds = get_dataset("wiki")
        g = ds.build_graph()
        csr = g.csr()
        res = temporal_sample(csr.indptr, csr.indices, csr.eids, csr.etimes,
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.float64), k=4)
        assert res.num_rows == 0

    def test_sampler_on_edgeless_graph(self):
        g = tg.TGraph(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.float64), num_nodes=4)
        ctx = tg.TContext(g)
        blk = tg.TBlock(ctx, 0, np.array([0, 2]), np.array([5.0, 6.0]))
        tg.TSampler(3).sample(blk)
        assert blk.num_src == 0


class TestCacheCapacityEdge:
    def test_cache_at_exact_capacity(self):
        """Filling a NodeTimeCache to exactly its capacity keeps every
        entry resident and the table self-consistent."""
        from repro.core.kernels import NodeTimeCache

        cap = 8
        cache = NodeTimeCache(capacity=cap)
        nodes = np.arange(cap, dtype=np.int64)
        times = np.arange(cap, dtype=np.float64)
        values = np.arange(cap * 4, dtype=np.float32).reshape(cap, 4)
        cache.store(nodes, times, values)
        assert cache.num_entries == cap
        assert cache.validate() == []
        hit, out = cache.lookup(nodes, times)
        assert hit.all()
        np.testing.assert_array_equal(out[hit], values)

    def test_store_past_capacity_evicts_fifo(self):
        from repro.core.kernels import NodeTimeCache

        cap = 8
        cache = NodeTimeCache(capacity=cap)
        nodes = np.arange(cap, dtype=np.int64)
        times = np.arange(cap, dtype=np.float64)
        cache.store(nodes, times, np.ones((cap, 4), dtype=np.float32))
        # One more entry evicts one resident: the batch's keys tie on their
        # predicted next reference, and the tie goes to the lowest slot,
        # the oldest entry.
        cache.store(np.array([100]), np.array([9.0]),
                    np.full((1, 4), 2.0, dtype=np.float32))
        assert cache.num_entries == cap
        assert cache.validate() == []
        hit, _ = cache.lookup(np.array([100]), np.array([9.0]))
        assert hit.all()
        hits, _ = cache.lookup(nodes, times)
        assert hits.sum() == cap - 1  # exactly one victim
        assert not hits[0]


class TestMailboxWraparound:
    def test_cursor_wraps_and_survives_checkpoint(self, tmp_path):
        """Multi-slot ring cursors wrap, checkpoint-restore bit-exactly,
        and subsequent stores land in the same slots as an uninterrupted
        mailbox."""
        from repro import nn as rnn
        from repro.bench import load_checkpoint, save_checkpoint

        class Tiny(rnn.Module):
            def __init__(self):
                super().__init__()
                self.lin = rnn.Linear(2, 2)

        def fill(mb, rounds):
            for r in range(rounds):
                mb.store(np.array([0, 1]),
                         np.full((2, 4), float(r), dtype=np.float32),
                         np.array([float(r), float(r)]))

        g = tg.TGraph([0, 1], [1, 0], [1.0, 2.0])
        g.set_mailbox(4, slots=3)
        fill(g.mailbox, 4)  # cursor wraps past the ring once
        assert g.mailbox._next_slot[0] == 4 % 3
        assert g.mailbox.validate() == []

        model = Tiny()
        path = str(tmp_path / "mb.npz")
        save_checkpoint(path, model, graph=g)

        g2 = tg.TGraph([0, 1], [1, 0], [1.0, 2.0])
        g2.set_mailbox(4, slots=3)
        load_checkpoint(path, model, graph=g2)
        np.testing.assert_array_equal(g2.mailbox.mail.data, g.mailbox.mail.data)
        np.testing.assert_array_equal(g2.mailbox._next_slot, g.mailbox._next_slot)

        # Continued stores behave identically to the uninterrupted mailbox.
        fill(g.mailbox, 2)
        fill(g2.mailbox, 2)
        np.testing.assert_array_equal(g2.mailbox.mail.data, g.mailbox.mail.data)
        np.testing.assert_array_equal(g2.mailbox.time, g.mailbox.time)
        assert g2.mailbox.validate() == []


class TestNumericalRobustness:
    def test_extreme_time_deltas_stay_finite(self):
        enc = nn.TimeEncode(8)
        out = enc(T.tensor(np.array([0.0, 1e12, 1e-12], dtype=np.float32)))
        assert np.all(np.isfinite(out.numpy()))

    def test_training_on_huge_timestamps(self):
        src = np.array([0, 1, 0, 1] * 20)
        dst = np.array([1, 0, 1, 0] * 20)
        ts = np.linspace(1e9, 1.2e9, 80)
        g = tg.TGraph(src, dst, ts)
        g.set_nfeat(np.random.default_rng(0).standard_normal((2, 4)).astype(np.float32))
        g.set_efeat(np.random.default_rng(1).standard_normal((80, 2)).astype(np.float32))
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=4, dim_edge=2, dim_time=4, dim_embed=4,
                     num_layers=1, num_nbrs=3)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        from repro.bench import train_epoch
        sampler = NegativeSampler(np.array([0, 1]))
        _, loss = train_epoch(model, g, opt, sampler, 20, stop=60)
        assert np.isfinite(loss)

    def test_segment_softmax_all_equal_scores(self):
        scores = T.zeros(4)
        out = T.segment_softmax(scores, np.array([0, 0, 0, 0]), 1)
        np.testing.assert_allclose(out.numpy(), np.full(4, 0.25), rtol=1e-6)


class TestGraphInputHardening:
    def test_non_finite_timestamp_rejected_with_index(self):
        with pytest.raises(ValueError, match="non-finite edge timestamp.*index 1"):
            tg.TGraph([0, 1, 2], [1, 2, 0], [1.0, np.nan, 3.0])

    def test_infinite_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-finite edge timestamp"):
            tg.TGraph([0, 1], [1, 0], [1.0, np.inf])

    def test_negative_timestamp_rejected_with_index(self):
        with pytest.raises(ValueError, match="negative edge timestamp.*index 0"):
            tg.TGraph([0, 1], [1, 0], [-2.0, 3.0])

    def test_negative_src_node_rejected_with_index(self):
        with pytest.raises(ValueError, match="negative src node id -3 at index 1"):
            tg.TGraph([0, -3], [1, 0], [1.0, 2.0])

    def test_negative_dst_node_rejected_with_index(self):
        with pytest.raises(ValueError, match="negative dst node id -1 at index 0"):
            tg.TGraph([0, 1], [-1, 0], [1.0, 2.0])

    def test_clean_graph_still_builds(self):
        g = tg.TGraph([0, 1], [1, 0], [0.0, 1.0])
        assert g.num_edges == 2


class TestOutOfOrderAndDuplicateDelivery:
    """Memory/Mailbox must absorb raw streaming batches: duplicated nodes
    and permuted delivery order, with deterministic last-event-wins state."""

    def _mem_after(self, order):
        mem = tg.Memory(5, 3)
        nodes = np.array([1, 2, 1, 2])[order]
        times = np.array([1.0, 2.0, 5.0, 4.0])[order]
        vals = np.arange(12, dtype=np.float32).reshape(4, 3)[order]
        mem.update(nodes, T.tensor(vals), times)
        return mem

    def test_memory_duplicate_nodes_last_event_wins(self):
        mem = self._mem_after(np.arange(4))
        assert mem.time[1] == 5.0 and mem.time[2] == 4.0
        np.testing.assert_array_equal(mem.data.data[1], [6.0, 7.0, 8.0])
        np.testing.assert_array_equal(mem.data.data[2], [9.0, 10.0, 11.0])

    def test_memory_update_is_order_invariant(self):
        base = self._mem_after(np.arange(4))
        for order in ([3, 2, 1, 0], [2, 0, 3, 1]):
            permuted = self._mem_after(np.array(order))
            np.testing.assert_array_equal(permuted.data.data, base.data.data)
            np.testing.assert_array_equal(permuted.time, base.time)
        assert not base.validate()

    def test_memory_timestamp_tie_broken_by_content_not_position(self):
        vals = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=np.float32)
        winners = []
        for order in ([0, 1], [1, 0]):
            mem = tg.Memory(3, 2)
            mem.update(np.array([1, 1])[order], T.tensor(vals[order]),
                       np.array([7.0, 7.0])[order])
            winners.append(mem.data.data[1].copy())
        np.testing.assert_array_equal(winners[0], winners[1])

    def test_mailbox_single_slot_duplicates_last_event_wins(self):
        mb = tg.Mailbox(4, 2, slots=1)
        mb.store(np.array([2, 2, 2]),
                 T.tensor(np.array([[1.0, 1], [2, 2], [3, 3]], dtype=np.float32)),
                 np.array([3.0, 9.0, 6.0]))
        np.testing.assert_array_equal(mb.mail.data[2], [2.0, 2.0])
        assert mb.time[2] == 9.0

    def test_mailbox_ring_duplicates_fill_consecutive_slots_canonically(self):
        deliveries = (np.array([1, 1, 1]),
                      np.array([[1.0, 0], [2, 0], [3, 0]], dtype=np.float32),
                      np.array([5.0, 3.0, 4.0]))
        states = []
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            mb = tg.Mailbox(4, 2, slots=3)
            idx = np.array(order)
            mb.store(deliveries[0][idx], T.tensor(deliveries[1][idx]),
                     deliveries[2][idx])
            states.append((mb.mail.data.copy(), mb.time.copy(),
                           mb._next_slot.copy()))
            assert not mb.validate()
        for mail, times, cursor in states[1:]:
            np.testing.assert_array_equal(mail, states[0][0])
            np.testing.assert_array_equal(times, states[0][1])
            np.testing.assert_array_equal(cursor, states[0][2])
        # ascending time order within the ring: 3.0, 4.0, 5.0
        np.testing.assert_array_equal(states[0][1][1], [3.0, 4.0, 5.0])
