"""Tests for TContext: modes, pinned pool, caches, scratch space."""

import numpy as np
import pytest

import repro.core as tg
from repro.core.kernels.cache import NodeTimeCache as _EmbedCache
from repro.store.tiers import PinnedPool as _PinnedPool
from repro.tensor.device import runtime


class TestModes:
    def test_defaults(self, tiny_graph):
        ctx = tg.TContext(tiny_graph)
        assert ctx.training
        assert ctx.device.is_cpu
        assert tiny_graph.ctx is ctx

    def test_train_eval_roundtrip(self, tiny_ctx):
        tiny_ctx.eval()
        assert not tiny_ctx.training
        tiny_ctx.train()
        assert tiny_ctx.training

    def test_entering_training_clears_embed_caches(self, tiny_ctx):
        tiny_ctx.eval()
        cache = tiny_ctx.store.space("embed:0").hot
        cache.store(np.array([1]), np.array([1.0]), np.ones((1, 4), dtype=np.float32))
        tiny_ctx.train(True)
        hit, _ = tiny_ctx.store.space("embed:0").hot.lookup(np.array([1]), np.array([1.0]))
        assert not hit.any()

    def test_repr(self, tiny_ctx):
        assert "TContext" in repr(tiny_ctx)

    def test_reset_clears_scratch(self, tiny_ctx):
        tiny_ctx.store.space("embed:0")
        tiny_ctx.time_table(123)
        tiny_ctx.reset()
        assert not any(k.startswith("embed:") for k in tiny_ctx.stats().counters)
        assert tiny_ctx.time_table(123)["version"] is None


class TestPinnedPool:
    def test_staged_tensor_is_pinned_copy(self):
        pool = _PinnedPool()
        rows = np.arange(12, dtype=np.float32).reshape(3, 4)
        staged = pool.stage(rows)
        assert staged.pinned
        np.testing.assert_array_equal(staged.numpy(), rows)

    def test_buffer_reuse_by_shape(self):
        pool = _PinnedPool()
        pool.stage(np.zeros((5, 4), dtype=np.float32))
        pool.stage(np.zeros((3, 4), dtype=np.float32))  # fits existing buffer
        assert pool.counters == {"pinned:hits": 1, "pinned:misses": 1}

    def test_buffer_grows_when_needed(self):
        pool = _PinnedPool()
        pool.stage(np.zeros((2, 4), dtype=np.float32))
        pool.stage(np.zeros((10, 4), dtype=np.float32))
        assert pool.counters["pinned:misses"] == 2

    def test_different_dtypes_use_separate_buffers(self):
        pool = _PinnedPool()
        pool.stage(np.zeros((2, 4), dtype=np.float32))
        pool.stage(np.zeros((2, 4), dtype=np.float64))
        assert pool.counters["pinned:misses"] == 2

    def test_staged_values_survive_overwrite_until_transfer(self):
        # The pool reuses buffers: transferring before the next stage() is
        # the contract (preload transfers immediately).
        pool = _PinnedPool()
        first = pool.stage(np.ones((2, 2), dtype=np.float32))
        moved = first.to("cuda")
        pool.stage(np.zeros((2, 2), dtype=np.float32))
        np.testing.assert_array_equal(moved.numpy(), np.ones((2, 2)))

    def test_clear(self):
        pool = _PinnedPool()
        pool.stage(np.zeros((2, 2), dtype=np.float32))
        pool.clear()
        pool.stage(np.zeros((2, 2), dtype=np.float32))
        assert pool.counters["pinned:misses"] == 2


class TestEmbedCache:
    def test_lookup_before_any_store(self):
        cache = _EmbedCache(4)
        hit, rows = cache.lookup(np.array([1, 2]), np.array([1.0, 2.0]))
        assert not hit.any()
        assert rows is None

    def test_store_and_lookup(self):
        cache = _EmbedCache(4)
        cache.store(np.array([1, 2]), np.array([1.0, 2.0]),
                    np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32))
        hit, rows = cache.lookup(np.array([2, 3]), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(hit, [True, False])
        np.testing.assert_allclose(rows[0], [2.0, 2.0])

    def test_time_distinguishes_entries(self):
        cache = _EmbedCache(4)
        cache.store(np.array([1]), np.array([1.0]), np.ones((1, 2), dtype=np.float32))
        hit, _ = cache.lookup(np.array([1]), np.array([2.0]))
        assert not hit.any()

    def test_fifo_eviction(self):
        cache = _EmbedCache(2)
        for i in range(3):
            cache.store(np.array([i]), np.array([0.0]),
                        np.full((1, 2), float(i), dtype=np.float32))
        hit0, _ = cache.lookup(np.array([0]), np.array([0.0]))
        hit2, _ = cache.lookup(np.array([2]), np.array([0.0]))
        assert not hit0.any() and hit2.all()

    def test_overwrite_same_key_updates_value(self):
        cache = _EmbedCache(4)
        cache.store(np.array([1]), np.array([0.0]), np.ones((1, 2), dtype=np.float32))
        cache.store(np.array([1]), np.array([0.0]), np.full((1, 2), 9.0, dtype=np.float32))
        _, rows = cache.lookup(np.array([1]), np.array([0.0]))
        np.testing.assert_allclose(rows[0], [9.0, 9.0])

    def test_hit_rate(self):
        cache = _EmbedCache(4)
        cache.store(np.array([1]), np.array([0.0]), np.ones((1, 2), dtype=np.float32))
        cache.lookup(np.array([1, 2]), np.array([0.0, 0.0]))
        assert cache.hits / cache.lookups == 0.5
        cache.clear()
        assert (cache.hits, cache.lookups) == (0, 0)

    def test_empty_query(self):
        cache = _EmbedCache(4)
        hit, rows = cache.lookup(np.empty(0, dtype=np.int64), np.empty(0))
        assert hit.shape == (0,)


class TestTimeTables:
    def test_time_table_lazily_created(self, tiny_ctx):
        table = tiny_ctx.time_table(42)
        assert table["version"] is None
        assert tiny_ctx.time_table(42) is table

    def test_clear_time_tables(self, tiny_ctx):
        tiny_ctx.time_table(42)["version"] = 7
        tiny_ctx.set_time_zero_slot(42, 1, np.zeros(3))
        tiny_ctx.clear_time_tables()
        assert tiny_ctx.time_table(42)["version"] is None
        assert tiny_ctx.time_zero_slot(42) is None
