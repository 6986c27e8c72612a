"""Tests for the feature store (`repro.store`).

Covers one hot table over its source end to end — evictions dropped,
source reads promoted into hot, prefetch hit/miss/stall accounting on the
simulated clock with staging holding prefetched rows only, eviction
determinism — plus the flat store shape that must stay bit-identical to
the bare cache kernel.
"""

import numpy as np
import pytest

import repro.core as tg
from repro.clock import SimClock
from repro.core import iter_batches
from repro.core.kernels.cache import NodeTimeCache
from repro.serve.deadline import CostModel, DegradationLadder
from repro.store import StoreConfig, TieredFeatureStore
from repro.store.prefetch import BatchPipeline, attach_graph_sources
from repro.store.tiered import STAGING_ROWS, TIERS


def rows_for(nodes, dim=4):
    """Deterministic distinct float32 rows keyed by node id."""
    nodes = np.asarray(nodes, dtype=np.int64)
    base = np.arange(dim, dtype=np.float32)
    return (nodes[:, None].astype(np.float32) * 10.0 + base).astype(np.float32)


def read(store):
    """A store's keys: its counter table plus the rings' read-time sums."""
    return {**store.counters, **store.gauges()}


def recovered(c):
    """Fraction of would-be stall time the prefetcher recovered."""
    saved = c["store:stall_saved_seconds"]
    return saved / (c["store:stall_seconds"] + saved)


class TestProtocol:
    def test_store_clock_monotone(self):
        clock = TieredFeatureStore().clock
        assert isinstance(clock, SimClock)
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_config_mb_budgets_resolve_to_rows(self):
        cfg = StoreConfig(hot_mb=1.0)
        # 1 MiB of dim-64 float32 rows = 4096 rows.
        assert cfg.hot_rows(64) == 4096
        assert cfg.hot_rows(None) == cfg.hot_capacity
        assert cfg.with_overrides(hot_mb=None).hot_mb == 1.0
        assert cfg.with_overrides(hot_mb=2.0).hot_mb == 2.0


class TestDemotionChain:
    """Hot over its source: what hot evicts is dropped, never demoted."""

    def make_store(self, hot=4):
        return TieredFeatureStore(StoreConfig(hot_capacity=hot, prefetch_depth=1))

    def fill(self, store, n, space="embed:0"):
        for node in range(n):
            store.put(np.array([node]), None, rows_for([node]), space=space)

    def test_evicted_memo_rows_drop_and_miss(self):
        store = self.make_store(hot=2)
        self.fill(store, 6)
        st = read(store)
        assert st["store:hot:evictions"] == 4
        assert st["store:staging:bytes_in"] == 0
        found, got = store.lookup(np.arange(6), None, space="embed:0")
        # Hot keeps two rows; the four it evicted are misses to recompute.
        assert found.sum() == 2
        np.testing.assert_array_equal(got[found], rows_for(np.flatnonzero(found)))
        with pytest.raises(KeyError):
            store.get(np.arange(6), None, space="embed:0")

    def test_cold_lookup_promotes_back_into_hot(self):
        store = self.make_store()
        store.register_source("nfeat", rows_for(np.arange(20)))
        for node in range(12):
            store.get(np.array([node]), None, space="nfeat")
        sp = store.space("nfeat")
        assert not sp.hot.contains(np.array([3]), np.array([0.0]))[0]
        before = read(store)
        got = store.get(np.array([3]), None, space="nfeat")
        np.testing.assert_array_equal(got, rows_for([3]))
        assert sp.hot.contains(np.array([3]), np.array([0.0]))[0]
        after = read(store)
        assert after["store:cold:hits"] == before["store:cold:hits"] + 1
        assert after["store:cold:bytes_out"] > before["store:cold:bytes_out"]

    def test_bytes_moved_sums_tier_inflow(self):
        store = self.make_store()
        self.fill(store, 12)
        st = read(store)
        moved = sum(st[f"store:{tier}:bytes_in"] for tier in TIERS)
        assert moved == st["store:hot:bytes_in"] > 0

    def test_source_backed_space_never_spills(self):
        store = self.make_store(hot=2)
        table = rows_for(np.arange(20))
        store.register_source("nfeat", table)
        for node in range(8):
            store.get(np.array([node]), None, space="nfeat")
        # Evicted source rows are simply re-read: nothing lands in staging.
        assert read(store)["store:hot:evictions"] == 6
        assert store.space("nfeat").staging.num_entries == 0
        np.testing.assert_array_equal(
            store.get(np.arange(8), None, space="nfeat"), table[:8])


class TestPrefetchAccounting:
    def make_store(self):
        cfg = StoreConfig(hot_capacity=64, prefetch_depth=1)
        store = TieredFeatureStore(cfg)
        store.register_source("nfeat", rows_for(np.arange(50)))
        return store

    def test_issued_counts_fresh_keys_only(self):
        store = self.make_store()
        nodes = np.array([1, 2, 3], dtype=np.int64)
        assert store.prefetch(nodes, None, space="nfeat") == 3
        # Already in flight / staged: nothing new to issue.
        assert store.prefetch(nodes, None, space="nfeat") == 0
        assert store.counters["store:prefetch_issued"] == 3

    def test_consumed_after_ready_is_a_hit_and_saves_stall(self):
        store = self.make_store()
        nodes = np.array([1, 2, 3], dtype=np.int64)
        store.prefetch(nodes, None, space="nfeat")
        store.clock.advance(10.0)  # transfers long complete
        found, got = store.lookup(nodes, None, space="nfeat")
        assert found.all()
        np.testing.assert_array_equal(got, rows_for(nodes))
        st = read(store)
        assert st["store:prefetch_hits"] == 3
        assert st["store:prefetch_late"] == 0
        assert st["store:stall_saved_seconds"] > 0.0
        assert 0.0 < recovered(st) <= 1.0

    def test_consumed_before_ready_is_late(self):
        store = self.make_store()
        nodes = np.array([4, 5], dtype=np.int64)
        store.prefetch(nodes, None, space="nfeat")
        found, _ = store.lookup(nodes, None, space="nfeat")  # clock unmoved
        assert found.all()
        st = read(store)
        assert st["store:prefetch_late"] == 2
        assert st["store:prefetch_hits"] == 0

    def test_demand_read_stalls_prefetched_read_does_not(self):
        cold = self.make_store()
        cold.get(np.array([7]), None, space="nfeat")
        demand_stall = cold.counters["store:stall_seconds"]
        warm = self.make_store()
        warm.prefetch(np.array([7]), None, space="nfeat")
        warm.clock.advance(10.0)
        warm.get(np.array([7]), None, space="nfeat")
        warm_stall = warm.counters["store:stall_seconds"]
        assert demand_stall > warm_stall > 0.0

    def test_prefetch_depth_zero_disables(self):
        cfg = StoreConfig(prefetch_depth=0)
        store = TieredFeatureStore(cfg)
        store.register_source("nfeat", rows_for(np.arange(10)))
        assert store.prefetch(np.array([1, 2]), None, space="nfeat") == 0
        assert store.counters["store:prefetch_issued"] == 0

    def test_prefetched_rows_survive_hot_pressure(self):
        store = TieredFeatureStore(StoreConfig(hot_capacity=64, prefetch_depth=1))
        store.register_source("nfeat", rows_for(np.arange(5000)))
        wanted = np.arange(4900, 4910, dtype=np.int64)
        assert store.prefetch(wanted, None, space="nfeat") == 10
        for lo in range(0, 4864, 64):  # churn the hot ring past STAGING_ROWS
            store.get(np.arange(lo, lo + 64), None, space="nfeat")
        store.clock.advance(10.0)
        found, got = store.lookup(wanted, None, space="nfeat")
        st = read(store)
        assert st["store:hot:evictions"] > STAGING_ROWS
        assert found.all() and st["store:staging:hits"] == 10
        assert st["store:prefetch_hits"] == 10 and st["store:prefetch_unused"] == 0
        np.testing.assert_array_equal(got, rows_for(wanted))

    def test_evicting_inflight_rows_counts_unused(self):
        store = self.make_store()
        store.prefetch(np.array([1, 2, 3]), None, space="nfeat")
        store.evict("nfeat")
        assert store.counters["store:prefetch_unused"] == 3

    def test_estimate_fetch_seconds_is_side_effect_free(self):
        store = self.make_store()
        store.get(np.array([1]), None, space="nfeat")
        before = read(store)
        nodes = np.array([1, 2, 3], dtype=np.int64)
        est1 = store.estimate_fetch_seconds(nodes, space="nfeat")
        est2 = store.estimate_fetch_seconds(nodes, space="nfeat")
        assert est1 == est2 > 0.0  # two cold keys -> nonzero stall
        assert read(store) == before
        # All-hot working sets cost nothing.
        assert store.estimate_fetch_seconds(np.array([1]), space="nfeat") == 0.0


class TestRefresh:
    def test_refresh_overwrites_resident_rows(self):
        table = rows_for(np.arange(10)).copy()
        store = TieredFeatureStore(StoreConfig(prefetch_depth=0))
        store.register_source("mem", table)
        nodes = np.array([2, 3], dtype=np.int64)
        store.get(nodes, None, space="mem")  # now hot
        table[2] = 99.0
        assert store.refresh(nodes, "mem") >= 1
        got = store.get(np.array([2]), None, space="mem")
        np.testing.assert_array_equal(got[0], np.full(4, 99.0, np.float32))


class TestEvictionDeterminism:
    """The reuse-distance policy must replay identically for a fixed seed."""

    def run_workload(self, seed):
        evicted = []
        cache = NodeTimeCache(
            16, policy="reuse",
            on_evict=lambda n, t, r: evicted.append((n.copy(), t.copy(), r.copy())),
        )
        rng = np.random.default_rng(seed)
        for _ in range(40):
            nodes = rng.integers(0, 64, size=8)
            times = np.zeros(8)
            if rng.random() < 0.5:
                cache.store(nodes, times, rows_for(nodes))
            else:
                cache.lookup(nodes, times)
        return cache, evicted

    def test_same_seed_same_eviction_sequence(self):
        c1, ev1 = self.run_workload(seed=7)
        c2, ev2 = self.run_workload(seed=7)
        assert len(ev1) == len(ev2) > 0
        for (n1, t1, r1), (n2, t2, r2) in zip(ev1, ev2):
            np.testing.assert_array_equal(n1, n2)
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(r1, r2)
        assert c1.evictions == c2.evictions
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
        assert cache.contains(hot, zeros).all()


class TestFlatStore:
    def test_flat_store_matches_the_bare_cache_bit_for_bit(self):
        """One hot tier with nothing below it is the cache kernel itself
        (which ``tests/test_kernels.py`` pins to the loop reference)."""
        store = TieredFeatureStore(StoreConfig(hot_capacity=8, prefetch_depth=0))
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


class TestServeFetchPenalty:
    """The ladder prices prefetch misses into the sampling rungs only."""

    def test_only_sampling_rungs_pay_the_fetch(self):
        cm = CostModel()
        for level in ("full", "reduced"):
            base = cm.estimate(level, 100)
            assert cm.estimate(level, 100, fetch_seconds=0.5) == base + 0.5
        for level in ("cache", "memory"):
            base = cm.estimate(level, 100)
            assert cm.estimate(level, 100, fetch_seconds=0.5) == base

    def test_fetch_penalty_pushes_decision_down_to_cache_rung(self):
        ladder = DegradationLadder()
        without = ladder.decide(0.02, 100)
        assert without.level == "full"
        with_fetch = ladder.decide(0.02, 100, fetch_seconds=0.05)
        assert with_fetch.level == "cache"


class TestBatchPipeline:
    def make_graph(self, num_nodes=30, num_edges=120, dim=8, seed=5):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        ts = np.sort(rng.uniform(0, 100, size=num_edges))
        g = tg.TGraph(src, dst, ts, num_nodes=num_nodes)
        g.set_nfeat(rng.standard_normal((num_nodes, dim)).astype(np.float32))
        return g

    def make_pipeline(self, g, **overrides):
        kwargs = dict(prefetch_depth=1, compute_seconds_per_row=1e-3)
        kwargs.update(overrides)
        cfg = StoreConfig(**kwargs)
        store = TieredFeatureStore(cfg)
        spaces = attach_graph_sources(store, g)
        assert spaces == ("nfeat",)
        return store, BatchPipeline(store, g)

    def test_yields_the_same_batches(self):
        g = self.make_graph()
        store, pipeline = self.make_pipeline(g)
        plain = list(iter_batches(g, 32))
        piped = list(pipeline.batches(iter_batches(g, 32)))
        assert len(piped) == len(plain)
        for a, b in zip(piped, plain):
            np.testing.assert_array_equal(a.src, b.src)
            np.testing.assert_array_equal(a.dst, b.dst)
            np.testing.assert_array_equal(a.ts, b.ts)

    def test_lookahead_recovers_stall(self):
        g = self.make_graph()
        store, pipeline = self.make_pipeline(g)
        for _ in pipeline.batches(iter_batches(g, 32)):
            pass
        st = read(store)
        assert st["store:prefetch_issued"] > 0
        assert st["store:prefetch_hits"] > 0
        # Batch N's modeled compute hides batch N+1's transfers.
        assert st["store:stall_saved_seconds"] > 0.0
        assert recovered(st) > 0.0

    def test_depth_zero_still_consumes_but_never_prefetches(self):
        g = self.make_graph()
        store, pipeline = self.make_pipeline(g, prefetch_depth=0)
        n = len(list(pipeline.batches(iter_batches(g, 32))))
        assert n == len(list(iter_batches(g, 32)))
        st = store.counters
        assert st["store:prefetch_issued"] == 0
        assert st["store:stall_saved_seconds"] == 0.0
        assert st["store:stall_seconds"] > 0.0  # demand gathers still modeled

    def test_attach_graph_sources_registers_memory(self):
        g = self.make_graph()
        g.set_memory(6)
        store = TieredFeatureStore()
        assert attach_graph_sources(store, g) == ("nfeat", "mem")

    def test_resilient_trainer_prefetches_its_evaluation_pass(self, tmp_path):
        from repro.bench import ResilientTrainer
        from repro.bench.experiments import Experiment, ExperimentConfig

        issued = {}
        for eval_end in (None, 1200):
            exp = Experiment(ExperimentConfig(
                model="tgat", framework="tglite+opt", batch_size=300, dim_embed=8,
                dim_time=8, num_layers=1, store_prefetch_depth=1,
            ))
            ResilientTrainer(
                exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
                checkpoint_dir=str(tmp_path / str(eval_end)), ctx=exp.ctx,
            ).train(epochs=1, train_end=300, eval_end=eval_end)
            issued[eval_end] = exp.ctx.counters["store:prefetch_issued"]
            exp.close()
        # Same training batch either way; the extra rows are evaluation's.
        assert issued[1200] > issued[None] > 0


class TestStatsSurface:
    def test_stats_snapshot_is_detached(self):
        store = TieredFeatureStore(StoreConfig(prefetch_depth=0))
        store.register_source("nfeat", rows_for(np.arange(8)))
        store.get(np.arange(4), None, space="nfeat")
        snap = read(store)
        store.get(np.arange(4, 8), None, space="nfeat")
        assert read(store)["store:hot:misses"] > snap["store:hot:misses"]

    def test_reset_stats_zeroes_counters_keeps_rows(self, tiny_graph):
        ctx = tg.TContext(tiny_graph, store=StoreConfig(prefetch_depth=0))
        store = ctx.store
        store.register_source("nfeat", rows_for(np.arange(8)))
        store.get(np.arange(4), None, space="nfeat")
        store.evict("nfeat")  # the evicted ring's counts stay in the totals
        store.get(np.arange(4), None, space="nfeat")
        ctx.reset_stats()
        st = ctx.stats().counters
        assert all(v == 0 for k, v in st.items() if k.startswith("store:"))
        found, _ = store.lookup(np.arange(4), None, space="nfeat")
        assert found.all()  # rows survived the counter reset
        assert ctx.stats().counters["store:hot:hits"] == 4

    def test_context_stats_carry_the_store_block(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        flat = ctx.stats().counters
        for key in ("store:hot:bytes_in", "store:staging:bytes_in", "store:cold:bytes_in",
                    "store:prefetch_issued", "store:stall_seconds",
                    "store:stall_saved_seconds", "store:hot:hits", "pinned:hits"):
            assert key in flat


class TestPrefetchDepthGuard:
    """`prefetch_depth > 1` must fail loudly, not silently behave as 1."""

    def test_depth_above_one_rejected_at_construction(self):
        with pytest.raises(ValueError, match="prefetch_depth=2"):
            StoreConfig(prefetch_depth=2)

    def test_with_overrides_revalidates(self):
        cfg = StoreConfig(prefetch_depth=1)
        with pytest.raises(ValueError, match="prefetch_depth=3"):
            cfg.with_overrides(prefetch_depth=3)

    def test_supported_depths_accepted(self):
        assert StoreConfig(prefetch_depth=0).prefetch_depth == 0
        assert StoreConfig(prefetch_depth=1).prefetch_depth == 1
