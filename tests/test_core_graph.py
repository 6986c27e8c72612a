"""Tests for TGraph storage, sorting, and temporal CSR construction."""

import numpy as np
import pytest

import repro.core as tg
from repro import tensor as T


class TestConstruction:
    def test_edges_sorted_by_time(self):
        g = tg.TGraph([0, 1, 2], [1, 2, 0], [3.0, 1.0, 2.0])
        np.testing.assert_allclose(g.ts, [1, 2, 3])
        np.testing.assert_array_equal(g.src, [1, 2, 0])
        np.testing.assert_array_equal(g.dst, [2, 0, 1])

    def test_sort_is_stable_for_ties(self):
        g = tg.TGraph([0, 1, 2], [3, 3, 3], [1.0, 1.0, 1.0], num_nodes=4)
        np.testing.assert_array_equal(g.src, [0, 1, 2])

    def test_num_nodes_inferred(self):
        g = tg.TGraph([0, 5], [1, 2], [1.0, 2.0])
        assert g.num_nodes == 6

    def test_num_nodes_too_small_rejected(self):
        with pytest.raises(ValueError):
            tg.TGraph([0, 5], [1, 2], [1.0, 2.0], num_nodes=3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tg.TGraph([0, 1], [1], [1.0, 2.0])

    def test_basic_stats(self):
        g = tg.TGraph([0, 1], [1, 0], [1.0, 5.0])
        assert g.num_edges == 2
        assert g.max_time == 5.0
        src, dst, ts = g.edges()
        assert len(src) == len(dst) == len(ts) == 2

    def test_empty_graph(self):
        g = tg.TGraph([], [], [], num_nodes=3)
        assert g.num_edges == 0
        assert g.max_time == 0.0
        csr = g.csr()
        assert csr.num_nodes == 3


class TestCSR:
    def test_neighbors_time_sorted_per_node(self):
        g = tg.TGraph([0, 0, 0, 1], [1, 2, 3, 0], [3.0, 1.0, 2.0, 4.0])
        csr = g.csr()
        for v in range(g.num_nodes):
            lo, hi = csr.indptr[v], csr.indptr[v + 1]
            ets = csr.etimes[lo:hi]
            assert np.all(np.diff(ets) >= 0)

    def test_reverse_edges_included_by_default(self):
        g = tg.TGraph([0], [1], [1.0])
        csr = g.csr()
        # Node 1 should see node 0 as a neighbor.
        lo, hi = csr.indptr[1], csr.indptr[2]
        np.testing.assert_array_equal(csr.indices[lo:hi], [0])
        np.testing.assert_array_equal(csr.eids[lo:hi], [0])

    def test_degree(self):
        g = tg.TGraph([0, 0, 1], [1, 2, 2], [1.0, 2.0, 3.0])
        degree = np.diff(g.csr().indptr)
        assert degree[0] == 2
        assert degree[2] == 2

    def test_csr_cached(self):
        g = tg.TGraph([0], [1], [1.0])
        assert g.csr() is g.csr()

    def test_eids_match_coo_rows(self):
        src = np.array([3, 1, 0, 2])
        dst = np.array([0, 2, 1, 3])
        ts = np.array([4.0, 2.0, 1.0, 3.0])
        g = tg.TGraph(src, dst, ts)
        csr = g.csr()
        # Every CSR entry's eid must point back to a COO edge between
        # the node and the listed neighbor at the listed time.
        for v in range(g.num_nodes):
            lo, hi = csr.indptr[v], csr.indptr[v + 1]
            for pos in range(lo, hi):
                e = csr.eids[pos]
                pair = {g.src[e], g.dst[e]}
                assert v in pair and csr.indices[pos] in pair
                assert csr.etimes[pos] == g.ts[e]


class TestFeatures:
    def test_set_and_read_features(self):
        g = tg.TGraph([0], [1], [1.0])
        g.set_nfeat(np.ones((2, 4), dtype=np.float32))
        g.set_efeat(np.ones((1, 3), dtype=np.float32))
        assert g.nfeat.shape == (2, 4)
        assert g.efeat.shape == (1, 3)

    def test_feature_shape_validation(self):
        g = tg.TGraph([0], [1], [1.0])
        with pytest.raises(ValueError):
            g.set_nfeat(np.ones((5, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            g.set_efeat(np.ones((2, 3), dtype=np.float32))


class TestMemoryAttachment:
    def test_set_memory_and_mailbox(self):
        g = tg.TGraph([0], [1], [1.0])
        mem = g.set_memory(8)
        mb = g.set_mailbox(16, slots=3)
        assert g.mem is mem and g.mailbox is mb
        assert mem.dim == 8 and mb.slots == 3

    def test_reset_state(self):
        g = tg.TGraph([0], [1], [1.0])
        g.set_memory(4)
        g.set_mailbox(4)
        g.mem.data.data[...] = 1.0
        g.mailbox.mail.data[...] = 1.0
        g.reset_state()
        assert g.mem.data.data.sum() == 0
        assert g.mailbox.mail.data.sum() == 0

    def test_reset_state_without_components_is_noop(self):
        tg.TGraph([0], [1], [1.0]).reset_state()
