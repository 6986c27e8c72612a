"""Tests for the Listing-1 manual TGAT and its equivalence to the framework."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.bench import train_epoch
from repro.data import NegativeSampler, get_dataset
from repro.manual import ManualOptimizer, ManualTGAT, NeighborFinder
from repro.models import TGAT, OptFlags


@pytest.fixture(scope="module")
def wiki():
    return get_dataset("wiki")


class TestNeighborFinder:
    def test_matches_framework_sampler(self, wiki):
        """The ad-hoc finder and TSampler must pick identical neighbors."""
        g = wiki.build_graph()
        finder = NeighborFinder(wiki.src, wiki.dst, wiki.ts, wiki.num_nodes)
        nodes = np.array([0, 3, 7])
        times = np.array([1e6, 1e6, 1e6])
        nbrs, eids, nbr_ts, mask = finder.sample_recent(5, nodes, times)

        ctx = tg.TContext(g)
        blk = tg.TBlock(ctx, 0, nodes, times)
        tg.TSampler(5, "recent").sample(blk)
        # Flatten padded rows and compare the real entries.
        flat_eids = eids[mask]
        np.testing.assert_array_equal(np.sort(flat_eids), np.sort(blk.eids))

    def test_padding_masked(self, wiki):
        finder = NeighborFinder(wiki.src, wiki.dst, wiki.ts, wiki.num_nodes)
        nbrs, eids, nbr_ts, mask = finder.sample_recent(
            4, np.array([0]), np.array([0.5])
        )
        assert not mask.any()
        assert (nbrs == 0).all()


class TestManualOptimizer:
    def test_dedup_filter_invert_roundtrip(self):
        opt = ManualOptimizer()
        nids = np.array([1, 2, 1])
        times = np.array([1.0, 1.0, 1.0])
        un, ut, inv = opt.dedup_filter(nids, times)
        assert len(un) == 2
        embs = T.tensor(np.array([[1.0], [2.0]]))
        out = ManualOptimizer.dedup_invert(embs, inv)
        np.testing.assert_allclose(out.numpy().reshape(-1)[0], out.numpy().reshape(-1)[2])

    def test_cache_roundtrip_and_eviction(self):
        opt = ManualOptimizer(cache_capacity=2)
        for i in range(3):
            opt.cache_store(1, np.ones((1, 4)) * i, np.array([i]), np.array([0.0]))
        hit, _ = opt.cache_lookup(1, np.arange(2), np.zeros(2))
        # node 1, stored after node 0 with the same gap, is due farthest away
        np.testing.assert_array_equal(hit, [True, False])
        hit, rows = opt.cache_lookup(1, np.array([2]), np.array([0.0]))
        assert hit.all()
        np.testing.assert_allclose(rows[0], np.full(4, 2.0))

    def test_time_table_reuse_and_invalidation(self):
        opt = ManualOptimizer()
        enc = nn.TimeEncode(4)
        first = opt.time_embs(enc, np.array([1.0, 2.0]))
        np.testing.assert_allclose(first, enc.encode_raw(np.array([1.0, 2.0])), rtol=1e-6)
        assert len(opt._time_tables[id(enc)]) == 2
        opt.invalidate_time_tables()
        assert opt._time_tables == {}

    def test_disabled_flags_passthrough(self):
        opt = ManualOptimizer()
        opt.enabled_dedup = False
        nids, times = np.array([1, 1]), np.array([0.0, 0.0])
        out_n, out_t, inv = opt.dedup_filter(nids, times)
        assert inv is None and len(out_n) == 2
        opt.enabled_cache = False
        hit, rows = opt.cache_lookup(0, nids, times)
        assert not hit.any() and rows is None


class TestManualTGAT:
    def _manual(self, wiki, **kw):
        return ManualTGAT(
            wiki.src, wiki.dst, wiki.ts, wiki.nfeat, wiki.efeat, wiki.num_nodes,
            dim_time=16, dim_embed=16, num_layers=2, num_heads=2, num_nbrs=5,
            dropout=0.0, **kw,
        )

    def test_forward_shapes(self, wiki):
        model = self._manual(wiki)
        g = wiki.build_graph()
        batch = tg.TBatch(g, 100, 140)
        batch.neg_nodes = np.random.default_rng(0).integers(0, g.num_nodes, 40)
        pos, neg = model(batch)
        assert pos.shape == (40,) and neg.shape == (40,)

    def test_trains(self, wiki):
        model = self._manual(wiki)
        g = wiki.build_graph()
        opt = nn.Adam(model.parameters(), lr=1e-2)
        neg = NegativeSampler.for_dataset(wiki)
        _, loss0 = train_epoch(model, g, opt, neg, 300, stop=900)
        _, loss1 = train_epoch(model, g, opt, neg, 300, stop=900)
        assert loss1 < loss0

    def test_equivalent_to_framework_tgat(self, wiki):
        """Same weights, same inputs -> same embeddings as repro.models.TGAT."""
        T.manual_seed(21)
        g = wiki.build_graph()
        ctx = tg.TContext(g)
        framework = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=16,
                         dim_embed=16, num_layers=2, num_heads=2, num_nbrs=5,
                         dropout=0.0, opt=OptFlags.none())
        manual = self._manual(wiki)

        # Transplant weights: framework attn_layers.i.* -> manual layers.i.*
        state = framework.state_dict()
        renamed = {}
        for key, value in state.items():
            renamed[key.replace("attn_layers.", "layers.")] = value
        manual.load_state_dict(renamed)

        batch = tg.TBatch(g, 200, 240)
        batch.neg_nodes = np.random.default_rng(1).integers(0, g.num_nodes, 40)
        framework.eval(); manual.eval()
        with T.no_grad():
            f_pos, f_neg = framework(batch)
            m_pos, m_neg = manual(batch)
        np.testing.assert_allclose(f_pos.numpy(), m_pos.numpy(), atol=2e-3)
        np.testing.assert_allclose(f_neg.numpy(), m_neg.numpy(), atol=2e-3)

    def test_cache_engages_only_in_eval(self, wiki):
        model = self._manual(wiki)
        g = wiki.build_graph()
        batch = tg.TBatch(g, 100, 130)
        batch.neg_nodes = np.zeros(30, dtype=np.int64) + 400
        model.train()
        model(batch)
        assert model.opt._cache == {}
        model.eval()
        with T.no_grad():
            model(batch)
        assert len(model.opt._cache) > 0

    def test_reset_state_clears_bookkeeping(self, wiki):
        model = self._manual(wiki)
        g = wiki.build_graph()
        batch = tg.TBatch(g, 100, 130)
        batch.neg_nodes = np.zeros(30, dtype=np.int64) + 400
        model.eval()
        with T.no_grad():
            model(batch)
        model.reset_state()
        assert model.opt._cache == {}
        assert model.opt._time_tables == {}
