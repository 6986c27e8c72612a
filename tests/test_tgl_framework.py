"""Tests for the TGL baseline framework: MFG, sampler, memory, models."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.core import TSampler
from repro.data import NegativeSampler, get_dataset
from repro.tensor.device import CUDA, runtime
from repro.tgl import (
    MFG,
    GRUMemoryUpdater,
    TGLAPAN,
    TGLJODIE,
    TGLMailBox,
    TGLSampler,
    TGLTGAT,
    TGLTGN,
    latest_unique_messages,
)
from repro.bench import train_epoch


@pytest.fixture(scope="module")
def wiki():
    return get_dataset("wiki")


def make_batch(g, size=40, start=100):
    batch = tg.TBatch.range(g, start, start + size)
    batch.neg_nodes = np.random.default_rng(0).integers(0, g.num_nodes, size=size)
    return batch


class TestMFG:
    def _mfg(self, g):
        sampler = TGLSampler(g, 5)
        return sampler.sample_hop(
            T.CPU, np.array([0, 1, 2]), np.array([2000.0, 2000.0, 2000.0])
        )

    def test_fused_deltas(self, wiki):
        g = wiki.build_graph()
        mfg = self._mfg(g)
        np.testing.assert_allclose(
            mfg.deltas, mfg.dsttimes[mfg.dstindex] - mfg.etimes
        )
        assert np.all(mfg.deltas >= 0)

    def test_allnodes_layout(self, wiki):
        g = wiki.build_graph()
        mfg = self._mfg(g)
        nodes = mfg.allnodes()
        np.testing.assert_array_equal(nodes[: mfg.num_dst], mfg.dstnodes)
        np.testing.assert_array_equal(nodes[mfg.num_dst :], mfg.srcnodes)

    def test_load_targets(self, wiki):
        g = wiki.build_graph()
        mfg = self._mfg(g)
        assert mfg.load("x", g.nfeat, which="dst").shape == (mfg.num_dst, 172)
        assert mfg.load("x", g.nfeat, which="src").shape == (mfg.num_src, 172)
        assert mfg.load("x", g.nfeat, which="all").shape == (mfg.num_dst + mfg.num_src, 172)
        assert mfg.load_edges("f", g.efeat).shape == (mfg.num_src, 172)
        with pytest.raises(ValueError):
            mfg.load("x", g.nfeat, which="bogus")

    def test_eager_load_is_pageable_transfer(self, wiki):
        g = wiki.build_graph()  # features on host
        sampler = TGLSampler(g, 5)
        mfg = sampler.sample_hop(CUDA, np.array([0, 1]), np.array([2000.0, 2000.0]))
        mfg.load("h", g.nfeat, which="all")
        assert runtime.transfer_stats.bytes > 0
        assert runtime.transfer_stats.pinned_bytes == 0  # TGL never pins


class TestTGLSampler:
    def test_kernel_parity_with_tglite(self, wiki):
        """Both frameworks must sample identical temporal neighborhoods."""
        g = wiki.build_graph()
        nodes = np.array([0, 5, 9])
        times = np.array([1e6, 1e6, 1e6])
        mfg = TGLSampler(g, 7).sample_hop(T.CPU, nodes, times)
        ctx = tg.TContext(g)
        blk = tg.TBlock(ctx, 0, nodes, times)
        TSampler(7, "recent").sample(blk)
        np.testing.assert_array_equal(mfg.srcnodes, blk.srcnodes)
        np.testing.assert_array_equal(mfg.eids, blk.eids)
        np.testing.assert_array_equal(mfg.dstindex, blk.dstindex)

    def test_multihop_returns_innermost_first(self, wiki):
        g = wiki.build_graph()
        mfgs = TGLSampler(g, 3).sample(T.CPU, np.array([0, 1]), np.array([2e6, 2e6]), 2)
        assert len(mfgs) == 2
        outer = mfgs[1]
        inner = mfgs[0]
        assert outer.num_dst == 2
        assert inner.num_dst == outer.num_dst + outer.num_src
        np.testing.assert_array_equal(inner.dstnodes, outer.allnodes())


class TestTGLMailBox:
    def test_latest_unique_messages(self):
        nids = np.array([3, 1, 3, 2])
        mail = T.tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
        ts = np.array([1.0, 2.0, 3.0, 4.0])
        uniq, rows, tss = latest_unique_messages(nids, mail, ts)
        np.testing.assert_array_equal(uniq, [1, 2, 3])
        np.testing.assert_allclose(rows.numpy(), [[2, 3], [6, 7], [4, 5]])
        np.testing.assert_allclose(tss, [2, 4, 3])

    def test_update_mailbox_keeps_latest(self):
        mb = TGLMailBox(4, 2, 3)
        mail = T.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        mb.update_mailbox(np.array([1, 1]), mail, np.array([1.0, 2.0]))
        np.testing.assert_allclose(mb.mailbox.data[1], [3, 4, 5])
        assert mb.mailbox_ts[1] == 2.0

    def test_multislot_ring(self):
        mb = TGLMailBox(2, 2, 1, slots=2)
        for v in range(3):
            mb.update_mailbox(np.array([0]), T.full((1, 1), float(v)), np.array([float(v)]))
        np.testing.assert_allclose(mb.mailbox.data[0].reshape(-1), [2, 1])

    def test_prep_input_mails(self, wiki):
        g = wiki.build_graph()
        mb = TGLMailBox(g.num_nodes, 4, 6)
        mfg = TGLSampler(g, 3).sample_hop(T.CPU, np.array([0, 1]), np.array([2e6, 2e6]))
        mb.prep_input_mails(mfg)
        n = mfg.num_dst + mfg.num_src
        assert mfg.srcdata["mem"].shape == (n, 4)
        assert mfg.srcdata["mail"].shape == (n, 6)
        assert mfg.srcdata["mem_ts"].shape == (n,)

    def test_update_memory_and_reset(self):
        mb = TGLMailBox(3, 2, 2)
        mb.update_memory(np.array([1]), T.ones(1, 2), np.array([5.0]))
        assert mb.node_memory.data[1].sum() == 2.0
        mb.reset()
        assert mb.node_memory.data.sum() == 0


class TestGRUMemoryUpdater:
    def test_records_last_updated(self, wiki):
        g = wiki.build_graph()
        mb = TGLMailBox(g.num_nodes, 8, 10)
        updater = GRUMemoryUpdater(dim_mail=10, dim_time=4, dim_mem=8, dim_node=172)
        mfg = TGLSampler(g, 2).sample_hop(T.CPU, np.array([0, 1]), np.array([2e6, 2e6]))
        mb.prep_input_mails(mfg)
        mfg.load("feat", g.nfeat, which="all")
        out = updater(mfg)
        n = mfg.num_dst + mfg.num_src
        assert out.shape == (n, 8)
        assert updater.last_updated_nids.shape == (n,)
        assert updater.last_updated_mem.shape == (n, 8)
        assert "h" in mfg.srcdata


@pytest.mark.parametrize("name", ["tgat", "tgn", "jodie", "apan"])
class TestTGLModels:
    def _build(self, name, g, ds):
        dn, de, dm = 172, 172, 16
        common = dict(dim_node=dn, dim_edge=de, dim_time=16, dim_embed=16)
        if name == "tgat":
            return TGLTGAT(g, num_layers=2, num_nbrs=5, **common)
        if name == "tgn":
            mb = TGLMailBox(g.num_nodes, dm, 2 * dm + de)
            return TGLTGN(g, mb, dim_mem=dm, num_layers=2, num_nbrs=5, **common)
        if name == "jodie":
            mb = TGLMailBox(g.num_nodes, dm, dm + de)
            return TGLJODIE(g, mb, dim_mem=dm, **common)
        mb = TGLMailBox(g.num_nodes, dm, 2 * dm + de, slots=4)
        return TGLAPAN(g, mb, dim_mem=dm, num_nbrs=5, **common)

    def test_forward_shapes(self, name, wiki):
        g = wiki.build_graph()
        model = self._build(name, g, wiki)
        pos, neg = model(make_batch(g))
        assert pos.shape == (40,) and neg.shape == (40,)

    def test_training_reduces_loss(self, name, wiki):
        g = wiki.build_graph()
        model = self._build(name, g, wiki)
        opt = nn.Adam(model.parameters(), lr=1e-2)
        neg = NegativeSampler.for_dataset(wiki)
        _, loss0 = train_epoch(model, g, opt, neg, 200, stop=800)
        model.reset_state()
        _, loss1 = train_epoch(model, g, opt, neg, 200, stop=800)
        assert loss1 < loss0

    def test_reset_state(self, name, wiki):
        g = wiki.build_graph()
        model = self._build(name, g, wiki)
        model(make_batch(g))
        model.reset_state()
        if hasattr(model, "mailbox"):
            assert model.mailbox.node_memory.data.sum() == 0
