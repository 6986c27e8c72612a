"""Tests for the unified TContext instrumentation (``ctx.stats()``) and the
kernel spans beside it (``repro.spans``)."""

import numpy as np
import pytest

import repro.core as tg
from repro import tensor as T
from repro.core import op as tgop
from repro.bench import evaluate
from repro.core.stats import ratios
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, OptFlags
from repro.spans import record
from repro.store import StoreConfig
from repro.tensor import manual_seed


class TestCounters:
    def test_count_accumulates(self, tiny_ctx):
        tiny_ctx.count("x", 3)
        tiny_ctx.count("x", 4)
        assert tiny_ctx.counters["x"] == 7
        assert tiny_ctx.stats().counters["x"] == 7

    def test_dedup_updates_counters(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0, 0, 1]), np.ones(3))
        tgop.dedup(blk)
        stats = tiny_ctx.stats()
        assert stats.counters["dedup_rows_in"] == 3
        assert stats.counters["dedup_rows_out"] == 2
        assert ratios(stats.counters)["dedup_reduction"] == pytest.approx(1 / 3)

    def test_dedup_counts_even_when_noop(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0, 1]), np.array([1.0, 2.0]))
        tgop.dedup(blk)
        assert ratios(tiny_ctx.stats().counters)["dedup_reduction"] == 0.0

    def test_cache_hit_rate_in_stats(self, tiny_ctx):
        tiny_ctx.eval()
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk)
        blk.run_hooks(T.tensor([[1.0]]))
        blk2 = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        tgop.cache(tiny_ctx, blk2)
        c = tiny_ctx.stats().counters
        assert ratios(c)["cache_hit_rate"] == 0.5
        assert [c[f"embed:0:{k}"] for k in ("hits", "lookups", "entries", "evictions")] == [
            1, 2, 1, 0]

    def test_reset_stats(self, tiny_ctx):
        tiny_ctx.count("x", 1)
        with record() as rec:
            tgop.dedup(tg.TBlock(tiny_ctx, 0, np.array([0, 0, 1]), np.ones(3)))
        tiny_ctx.reset_stats()
        assert tiny_ctx.counters["x"] == 0
        assert set(tiny_ctx.counters.values()) == {0}
        # kernel seconds live in the recording, not the table
        assert not any(key.startswith("kernel:") for key in tiny_ctx.counters)
        assert [s.name for s in rec.spans] == ["kernel:dedup"]

    def test_reset_stats_keeps_cache_contents(self, tiny_ctx):
        tiny_ctx.eval()
        cache = tiny_ctx.embed_cache(0)
        cache.store(np.array([1]), np.array([1.0]), np.ones((1, 2), dtype=np.float32))
        cache.lookup(np.array([1]), np.array([1.0]))
        tiny_ctx.reset_stats()
        c = tiny_ctx.stats().counters
        assert c["embed:0:lookups"] == 0
        assert c["embed:0:entries"] == 1  # contents survive a stats reset
        hit, _ = cache.lookup(np.array([1]), np.array([1.0]))
        assert hit.all()

    def test_no_division_by_zero_without_activity(self, tiny_ctx):
        assert ratios(tiny_ctx.stats().counters) == {}

    def test_snapshot_is_frozen_copy(self, tiny_ctx):
        tiny_ctx.count("x", 1)
        before = tiny_ctx.stats()
        tiny_ctx.count("x", 1)
        assert before.counters["x"] == 1
        with pytest.raises(Exception):
            before.counters = {}


class TestKernelTimes:
    def test_kernel_spans_accumulate(self, tiny_ctx, tiny_graph):
        sampler = tg.TSampler(2)
        with record() as rec:
            for _ in range(2):
                sampler.sample(tg.TBatch(tiny_graph, 0, 4).block(tiny_ctx))
        spans = [s for s in rec.spans if s.name == "kernel:sample"]
        assert len(spans) == 2
        assert rec.totals()["kernel:sample"] == pytest.approx(
            sum(s.end - s.start for s in spans))

    def test_sampling_records_kernel_time(self, tiny_ctx, tiny_graph):
        blk = tg.TBatch(tiny_graph, 0, 4).block(tiny_ctx)
        with record() as rec:
            tg.TSampler(2).sample(blk)
        assert rec.totals()["kernel:sample"] >= 0

    def test_dedup_records_kernel_time(self, tiny_ctx):
        blk = tg.TBlock(tiny_ctx, 0, np.array([0, 0, 1]), np.ones(3))
        with record() as rec:
            tgop.dedup(blk)
        assert "kernel:dedup" in rec.totals()

    def test_cache_records_kernel_time(self, tiny_ctx):
        tiny_ctx.eval()
        blk = tg.TBlock(tiny_ctx, 0, np.array([0]), np.array([1.0]))
        with record() as rec:
            tgop.cache(tiny_ctx, blk)
            blk.run_hooks(T.tensor([[1.0]]))
        assert {"kernel:cache_lookup", "kernel:cache_store"} <= set(rec.totals())


class TestEndToEndStats:
    def test_tgat_epoch_reports_meaningful_reduction(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                     num_layers=2, num_nbrs=5, opt=OptFlags(dedup=True))
        batch = tg.TBatch(g, 1500, 1800)
        batch.neg_nodes = NegativeSampler.for_dataset(ds).sample(300)
        with record() as rec:
            model(batch)
        stats = ctx.stats()
        # The scaled wiki graph has heavy duplication mid-stream.
        assert ratios(stats.counters)["dedup_reduction"] > 0.3
        assert stats.counters["dedup_rows_in"] > stats.counters["dedup_rows_out"] > 0
        # The sampling kernel ran and its time was attributed.
        assert rec.totals()["kernel:sample"] > 0

    def test_memoised_tgat_evaluate_is_pinned(self):
        """One ``tglite+opt`` TGAT evaluate over 2-layer memo rings small
        enough to evict: its scores, each ring's counts and the hit rate
        are pinned, so a change to memoisation or eviction that moves any
        of them shows here."""
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g, store=StoreConfig(hot_capacity=2000))
        manual_seed(0)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                     num_layers=2, num_nbrs=3, opt=OptFlags.all())
        scores = []
        forward = model.forward

        def capture(batch):
            pos, neg = forward(batch)
            scores.append((pos.data.copy(), neg.data.copy()))
            return pos, neg

        model.forward = capture
        _, ap = evaluate(model, g, NegativeSampler.for_dataset(ds), 300, start=900, stop=2400)
        pos = np.concatenate([p for p, _ in scores])
        neg = np.concatenate([n for _, n in scores])
        assert ap == pytest.approx(0.4653748146831521, rel=1e-9)
        assert len(pos) == len(neg) == 1500
        assert float(pos.sum()) == pytest.approx(-624.0977783203125, rel=1e-6)
        assert float(neg.sum()) == pytest.approx(-580.57470703125, rel=1e-6)
        c = ctx.stats().counters
        keys = ("hits", "lookups", "entries", "evictions")
        assert [c[f"embed:0:{k}"] for k in keys] == [0, 4468, 2000, 2468]
        assert [c[f"embed:1:{k}"] for k in keys] == [1449, 6507, 2000, 3058]
        assert ratios(c)["cache_hit_rate"] == pytest.approx(0.1320273348519362, rel=1e-12)
