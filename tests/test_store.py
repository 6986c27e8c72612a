"""Tests for the memo cache (`repro.store` and ``TContext.embed_cache``).

Covers the cache end to end — one reuse-distance ring per layer, evictions
dropped and recomputed, the rings' counts in ``ctx.stats()``, eviction
determinism, ``hot_mb`` sizing and its guard.
"""

import numpy as np
import pytest

import repro.core as tg
from repro.bench.cli import main
from repro.core.kernels.cache import NodeTimeCache
from repro.store import StoreConfig


def rows_for(nodes, dim=4):
    """Deterministic distinct float32 rows keyed by node id."""
    nodes = np.asarray(nodes, dtype=np.int64)
    base = np.arange(dim, dtype=np.float32)
    return (nodes[:, None].astype(np.float32) * 10.0 + base).astype(np.float32)


class TestProtocol:
    def test_config_mb_budgets_resolve_to_rows(self):
        cfg = StoreConfig(hot_mb=1.0)
        # 1 MiB of dim-64 float32 rows = 4096 rows.
        assert cfg.hot_rows(64) == 4096
        assert cfg.hot_rows(None) == cfg.hot_capacity

    def test_mb_budget_sizes_the_ring_at_its_first_row(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, store=StoreConfig(hot_mb=1.0))
        ring = ctx.embed_cache(0)
        ring.lookup(np.arange(3), np.zeros(3))
        assert ring.capacity == StoreConfig().hot_capacity  # width unknown yet
        fitted = ctx.fit_embed_cache(0, 64)
        assert fitted.capacity == 4096 and ctx.embed_cache(0) is fitted
        assert fitted.lookups == 3  # the lookups before the first row count
        fitted.store(np.arange(2), np.zeros(2), np.ones((2, 64), dtype=np.float32))
        # sized once: a stored ring keeps its size whatever width is asked
        assert ctx.fit_embed_cache(0, 8) is fitted

    def test_row_budget_keeps_the_first_ring(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, store=StoreConfig(hot_capacity=5))
        ring = ctx.embed_cache(1)
        assert ctx.fit_embed_cache(1, 64) is ring and ring.capacity == 5


class TestDemotionChain:
    """What a layer's ring evicts is dropped, never demoted."""

    def test_evicted_memo_rows_drop_and_miss(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, store=StoreConfig(hot_capacity=2))
        ring = ctx.embed_cache(0)
        for node in range(6):
            ring.store(np.array([node]), np.zeros(1), rows_for([node]))
        assert ctx.stats().counters["embed:0:evictions"] == 4
        found, got = ring.lookup(np.arange(6), np.zeros(6))
        # The ring keeps two rows; the four it evicted are misses to recompute.
        assert found.sum() == 2
        np.testing.assert_array_equal(got[found], rows_for(np.flatnonzero(found)))
        c = ctx.stats().counters
        assert c["embed:0:lookups"] - c["embed:0:hits"] == 4

class TestEvictionDeterminism:
    """The reuse-distance policy must replay identically for a fixed seed."""

    def run_workload(self, seed):
        """The ring's eviction count and resident keys after every step."""
        trace = []
        cache = NodeTimeCache(16)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            nodes = rng.integers(0, 64, size=8)
            times = np.zeros(8)
            if rng.random() < 0.5:
                cache.store(nodes, times, rows_for(nodes))
            else:
                cache.lookup(nodes, times)
            resident = (cache._slot_nodes[:cache.num_entries].copy()
                        if cache.num_entries else np.empty(0, dtype=np.int64))
            trace.append((cache.evictions, resident))
        return cache, trace

    def test_same_seed_same_eviction_sequence(self):
        c1, tr1 = self.run_workload(seed=7)
        c2, tr2 = self.run_workload(seed=7)
        assert len(tr1) == len(tr2) and c1.evictions > 0
        for (e1, r1), (e2, r2) in zip(tr1, tr2):
            assert e1 == e2
            np.testing.assert_array_equal(r1, r2)
        assert c1.validate() == [] and c2.validate() == []

    def test_reuse_policy_keeps_hot_keys_over_scanned_ones(self):
        cache = NodeTimeCache(8)
        hot = np.arange(4, dtype=np.int64)
        zeros = np.zeros(4)
        cache.store(hot, zeros, rows_for(hot))
        for _ in range(6):  # short, stable reuse gap
            cache.lookup(hot, zeros)
        for wave in range(10):  # one-touch scan traffic
            scan = np.arange(100 + 4 * wave, 104 + 4 * wave, dtype=np.int64)
            cache.store(scan, np.zeros(4), rows_for(scan))
        found, rows = cache.lookup(hot, zeros)
        assert found.all()
        np.testing.assert_array_equal(rows, rows_for(hot))


class TestStatsSurface:
    def test_stats_snapshot_is_detached(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        ring = ctx.embed_cache(0)
        ring.store(np.arange(4), np.zeros(4), rows_for(np.arange(4)))
        ring.lookup(np.arange(4), np.zeros(4))
        snap = ctx.stats().counters
        ring.lookup(np.arange(4, 8), np.zeros(4))
        assert ctx.stats().counters["embed:0:lookups"] > snap["embed:0:lookups"]
        assert snap["embed:0:lookups"] == 4

    def test_reset_stats_zeroes_counters_keeps_rows(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        ring = ctx.embed_cache(0)
        ring.store(np.arange(4), np.zeros(4), rows_for(np.arange(4)))
        ring.lookup(np.arange(4), np.zeros(4))
        assert ctx.stats().counters["embed:0:hits"] == 4
        ctx.reset_stats()
        st = ctx.stats().counters
        assert [st[f"embed:0:{k}"] for k in ("hits", "lookups", "entries", "evictions")] == [
            0, 0, 4, 0]
        found, _ = ring.lookup(np.arange(4), np.zeros(4))
        assert found.all()  # rows survived the counter reset
        assert ctx.stats().counters["embed:0:hits"] == 4

    def test_context_stats_carry_the_store_block(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        flat = ctx.stats().counters
        assert {"pinned:hits", "pinned:misses"} <= set(flat)
        assert not any(k.startswith(("store:", "embed:")) for k in flat)
        ctx.embed_cache(0)
        ctx.embed_cache(1)
        flat = ctx.stats().counters
        for layer in (0, 1):
            for key in ("hits", "lookups", "entries", "evictions"):
                assert flat[f"embed:{layer}:{key}"] == 0


class TestHotMbGuard:
    """A ``hot_mb`` that sizes no ring must fail loudly, naming the flag."""

    @pytest.mark.parametrize("mb", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_non_positive_or_non_finite_rejected(self, mb):
        with pytest.raises(ValueError, match="--store-hot-mb"):
            StoreConfig(hot_mb=mb)

    def test_positive_finite_budgets_accepted(self):
        assert StoreConfig().hot_mb is None
        # a budget below one row still keeps one row
        assert StoreConfig(hot_mb=1e-9).hot_rows(64) == 1
        assert StoreConfig(hot_mb=2).hot_rows(64) == 8192

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_cli_rejects_the_flag_at_parse_time(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--list-datasets", "--store-hot-mb", value])
        assert exc.value.code == 2
        assert "--store-hot-mb" in capsys.readouterr().err
