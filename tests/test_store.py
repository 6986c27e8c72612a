"""Tests for the feature store (`repro.store`).

Covers the memo cache end to end — one hot ring per space, evictions
dropped and recomputed, byte and ring accounting, eviction determinism,
the ``hot_mb`` guard — plus the flat store shape that must stay
bit-identical to the bare cache kernel.
"""

import numpy as np
import pytest

import repro.core as tg
from repro.bench.cli import main
from repro.core.kernels.cache import NodeTimeCache
from repro.store import StoreConfig, TieredFeatureStore


def rows_for(nodes, dim=4):
    """Deterministic distinct float32 rows keyed by node id."""
    nodes = np.asarray(nodes, dtype=np.int64)
    base = np.arange(dim, dtype=np.float32)
    return (nodes[:, None].astype(np.float32) * 10.0 + base).astype(np.float32)


def read(store):
    """A store's keys: its counter table plus the rings' read-time sums."""
    return {**store.counters, **store.gauges()}


class TestProtocol:
    def test_config_mb_budgets_resolve_to_rows(self):
        cfg = StoreConfig(hot_mb=1.0)
        # 1 MiB of dim-64 float32 rows = 4096 rows.
        assert cfg.hot_rows(64) == 4096
        assert cfg.hot_rows(None) == cfg.hot_capacity
        assert cfg.with_overrides(hot_mb=None).hot_mb == 1.0
        assert cfg.with_overrides(hot_mb=2.0).hot_mb == 2.0


class TestDemotionChain:
    """What the hot ring evicts is dropped, never demoted."""

    def make_store(self, hot=4):
        return TieredFeatureStore(StoreConfig(hot_capacity=hot))

    def fill(self, store, n, space="embed:0"):
        for node in range(n):
            store.put(np.array([node]), None, rows_for([node]), space=space)

    def test_evicted_memo_rows_drop_and_miss(self):
        store = self.make_store(hot=2)
        self.fill(store, 6)
        st = read(store)
        assert st["store:hot:evictions"] == 4
        found, got = store.lookup(np.arange(6), None, space="embed:0")
        # Hot keeps two rows; the four it evicted are misses to recompute.
        assert found.sum() == 2
        np.testing.assert_array_equal(got[found], rows_for(np.flatnonzero(found)))
        assert read(store)["store:hot:misses"] == 4

    def test_bytes_moved_sums_tier_inflow(self):
        store = self.make_store()
        self.fill(store, 12)
        # Every stored row is counted once, evicted or not.
        st = read(store)
        assert st["store:hot:bytes_in"] == rows_for(np.arange(12)).nbytes
        assert st["store:hot:bytes_out"] == 0

class TestEvictionDeterminism:
    """The reuse-distance policy must replay identically for a fixed seed."""

    def run_workload(self, seed):
        """The ring's eviction count and resident keys after every step."""
        trace = []
        cache = NodeTimeCache(16, policy="reuse")
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
        cache = NodeTimeCache(8, policy="reuse")
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


class TestFlatStore:
    def test_flat_store_matches_the_bare_cache_bit_for_bit(self):
        """One hot tier with nothing below it is the cache kernel itself
        (which ``tests/test_kernels.py`` pins to the loop reference)."""
        store = TieredFeatureStore(StoreConfig(hot_capacity=8))
        ref = NodeTimeCache(8, policy="reuse")
        rng = np.random.default_rng(3)
        for _ in range(30):
            nodes = rng.integers(0, 24, size=6)
            times = rng.integers(0, 4, size=6).astype(np.float64)
            if rng.random() < 0.5:
                vals = rows_for(nodes) + times[:, None].astype(np.float32)
                store.put(nodes, times, vals, space="embed:0")
                ref.store(nodes, times, vals)
            else:
                got_hit, got_rows = store.lookup(nodes, times, space="embed:0")
                want_hit, want_rows = ref.lookup(nodes, times)
                np.testing.assert_array_equal(got_hit, want_hit)
                if want_rows is not None:
                    np.testing.assert_array_equal(
                        got_rows[want_hit], want_rows[want_hit])


class TestStatsSurface:
    def test_stats_snapshot_is_detached(self):
        store = TieredFeatureStore()
        store.put(np.arange(4), None, rows_for(np.arange(4)), space="embed:0")
        store.lookup(np.arange(4), None, space="embed:0")
        snap = read(store)
        store.lookup(np.arange(4, 8), None, space="embed:0")
        assert read(store)["store:hot:misses"] > snap["store:hot:misses"]

    def test_reset_stats_zeroes_counters_keeps_rows(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        store = ctx.store
        store.put(np.arange(4), None, rows_for(np.arange(4)), space="embed:0")
        store.lookup(np.arange(4), None, space="embed:0")
        store.evict("embed:0")  # the evicted ring's counts stay in the totals
        assert ctx.stats().counters["store:hot:hits"] == 4
        store.put(np.arange(4), None, rows_for(np.arange(4)), space="embed:0")
        ctx.reset_stats()
        st = ctx.stats().counters
        assert all(v == 0 for k, v in st.items() if k.startswith("store:"))
        found, _ = store.lookup(np.arange(4), None, space="embed:0")
        assert found.all()  # rows survived the counter reset
        assert ctx.stats().counters["store:hot:hits"] == 4

    def test_context_stats_carry_the_store_block(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        flat = ctx.stats().counters
        for key in ("store:hot:bytes_in", "store:hot:bytes_out", "store:hot:hits",
                    "store:hot:misses", "store:hot:evictions", "pinned:hits"):
            assert key in flat


class TestHotMbGuard:
    """A ``hot_mb`` that sizes no ring must fail loudly, naming the flag."""

    @pytest.mark.parametrize("mb", [0.0, -1.0, float("nan"), float("inf")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_non_positive_or_non_finite_rejected(self, mb):
        with pytest.raises(ValueError, match="--store-hot-mb"):
            StoreConfig(hot_mb=mb)

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError, match="--store-hot-mb"):
            StoreConfig().with_overrides(hot_mb=0.0)

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
