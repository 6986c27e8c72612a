"""Unit and gradient tests for the segmented kernels."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import tensor as T
from repro.tensor.segment import (
    _scatter_add,
    segment_argmax_by_key,
    segment_count,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)

from conftest import check_grad
from reference import scatter_add_reference

IDS = np.array([0, 0, 1, 2, 2, 2])


class TestForward:
    def test_segment_count(self):
        np.testing.assert_array_equal(segment_count(IDS, 4), [2, 1, 3, 0])

    def test_segment_sum(self):
        data = T.tensor(np.arange(6, dtype=np.float32).reshape(6, 1))
        out = segment_sum(data, IDS, 4)
        np.testing.assert_allclose(out.numpy(), [[1], [2], [12], [0]])

    def test_segment_mean(self):
        data = T.tensor(np.arange(6, dtype=np.float32).reshape(6, 1))
        out = segment_mean(data, IDS, 4)
        np.testing.assert_allclose(out.numpy(), [[0.5], [2], [4], [0]])

    def test_segment_max(self):
        data = T.tensor(np.array([3.0, 1.0, 7.0, 2.0, 9.0, 4.0]))
        out = segment_max(data, IDS, 4)
        np.testing.assert_allclose(out.numpy(), [3, 7, 9, 0])

    def test_segment_max_empty_segment_is_zero(self):
        out = segment_max(T.tensor([-5.0]), np.array([1]), 3)
        np.testing.assert_allclose(out.numpy(), [0, -5, 0])

    def test_segment_softmax_sums_to_one(self):
        scores = T.randn(6)
        out = segment_softmax(scores, IDS, 3).numpy()
        assert abs(out[:2].sum() - 1) < 1e-5
        assert abs(out[2] - 1) < 1e-5
        assert abs(out[3:].sum() - 1) < 1e-5

    def test_segment_softmax_multihead(self):
        scores = T.randn(6, 4)
        out = segment_softmax(scores, IDS, 3).numpy()
        np.testing.assert_allclose(out[:2].sum(axis=0), np.ones(4), rtol=1e-5)
        np.testing.assert_allclose(out[3:].sum(axis=0), np.ones(4), rtol=1e-5)

    def test_segment_softmax_extreme_scores_stable(self):
        scores = T.tensor([1000.0, -1000.0, 500.0])
        out = segment_softmax(scores, np.array([0, 0, 1]), 2).numpy()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1, 0, 1], atol=1e-6)

    def test_segment_ids_accept_tensor(self):
        out = segment_sum(T.ones(3, 2), T.tensor([0, 0, 1], dtype=np.int64), 2)
        np.testing.assert_allclose(out.numpy(), [[2, 2], [1, 1]])


class TestGradients:
    def test_segment_sum_grad(self):
        check_grad(lambda d: segment_sum(d, IDS, 4).exp(), (6, 2))

    def test_segment_mean_grad(self):
        check_grad(lambda d: segment_mean(d, IDS, 4).exp(), (6, 2))

    def test_segment_max_grad(self):
        check_grad(lambda d: segment_max(d, IDS, 4) * 2.0, (6,))

    def test_segment_softmax_grad(self):
        weights = T.tensor(np.arange(6, dtype=np.float32))
        check_grad(lambda s: segment_softmax(s, IDS, 3) * weights, (6,))

    def test_segment_softmax_multihead_grad(self):
        weights = T.tensor(np.arange(12, dtype=np.float32).reshape(6, 2))
        check_grad(lambda s: segment_softmax(s, IDS, 3) * weights, (6, 2))


class TestArgmaxByKey:
    def test_latest_per_segment(self):
        keys = np.array([1.0, 5.0, 2.0, 9.0, 3.0])
        ids = np.array([0, 0, 1, 1, 1])
        out = segment_argmax_by_key(keys, ids, 3)
        np.testing.assert_array_equal(out, [1, 3, -1])

    def test_tie_picks_last_row(self):
        keys = np.array([5.0, 5.0])
        out = segment_argmax_by_key(keys, np.array([0, 0]), 1)
        assert out[0] == 1

    def test_empty_segments_marked(self):
        out = segment_argmax_by_key(np.array([]), np.array([], dtype=np.int64), 2)
        np.testing.assert_array_equal(out, [-1, -1])


class TestScatterAddKernel:
    """The backward scatter kernel equals sequential ``np.add.at`` bit for bit, in
    float32 and float64, for 1-D integer keys (a sparse product) and the rest
    (``np.add.at`` itself)."""

    IDS = {
        "sorted": np.array([0, 0, 1, 4, 4, 4, 7]),
        "unsorted": np.array([4, 0, 7, 4, 1, 0, 4]),
        "gaps": np.array([2, 2, 9, 9, 9]),
        "single_run": np.array([3, 3, 3, 3]),
        "empty": np.array([], dtype=np.int64),
        "negative": np.array([-1, 11, 0, -12]),
        "int32": np.array([0, 5, 5, 6], dtype=np.int32),
    }

    @pytest.mark.parametrize("name", sorted(IDS))
    @pytest.mark.parametrize("tail", [(), (1,), (3,), (7,), (2, 16)], ids=str)
    def test_matches_add_at(self, name, tail):
        ids = self.IDS[name]
        num_segments = 12  # larger than max(id) + 1 for every case
        values = np.random.default_rng(len(tail)).standard_normal((len(ids),) + tail)
        shape = (num_segments,) + tail
        out = _scatter_add(shape, ids, values)
        assert out.shape == shape and out.dtype == np.float64
        assert (out == scatter_add_reference(shape, ids, values)).all()
        out32 = _scatter_add(shape, ids, values.astype(np.float32))
        assert out32.dtype == np.float32
        assert (out32 == scatter_add_reference(shape, ids, values.astype(np.float32))).all()

    def test_sampler_shape_sorted_dstindex(self):
        """The shapes backward actually sees: (E, H) scores and (E, H, d) messages."""
        rng = np.random.default_rng(0)
        ids = np.sort(rng.integers(0, 400, 4000))
        for tail in [(2,), (2, 16), (32,)]:
            values = rng.standard_normal((4000,) + tail).astype(np.float32)
            ref = scatter_add_reference((400,) + tail, ids, values)
            assert (_scatter_add((400,) + tail, ids, values) == ref).all()

    def test_out_of_range_ids_raise(self):
        values = np.ones((2, 3), dtype=np.float32)
        for ids in (np.array([0, 4]), np.array([-5, 0])):
            with pytest.raises(IndexError):
                _scatter_add((4, 3), ids, values)

    def test_general_keys_fall_back(self):
        values = np.arange(6, dtype=np.float32).reshape(3, 2)
        key = (np.array([0, 0, 2]), slice(0, 2))
        assert (_scatter_add((4, 3), key, values) == scatter_add_reference((4, 3), key, values)).all()
        mask = np.array([True, False, True, True])
        assert (_scatter_add((4, 2), mask, values) == scatter_add_reference((4, 2), mask, values)).all()


class TestForwardBitContract:
    """Forward scatter-adds stay a *sequential float32* ``np.add.at``: inference
    outputs and persisted state depend on these bits (reduceat / bincount would
    differ in the last place), so equality here is ``==``, not a tolerance."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.ids = np.sort(rng.integers(0, 300, 5000))
        self.data = (rng.standard_normal((5000, 8)) * 10).astype(np.float32)

    def test_segment_sum(self):
        out = segment_sum(T.tensor(self.data), self.ids, 300).numpy()
        assert (out == scatter_add_reference((300, 8), self.ids, self.data)).all()

    def test_segment_softmax(self):
        scores = self.data[:, :2]
        maxes = np.full((300, 2), np.finfo(np.float32).min, dtype=np.float32)
        np.maximum.at(maxes, self.ids, scores)
        exp = np.exp(scores - maxes[self.ids])
        denom = np.maximum(scatter_add_reference((300, 2), self.ids, exp),
                           np.finfo(np.float32).tiny)
        out = segment_softmax(T.tensor(scores), self.ids, 300).numpy()
        assert (out == exp / denom[self.ids]).all()


def test_importing_the_package_leaves_scipy_sparse_unloaded():
    """The kernels import ``scipy.sparse`` on first use: at module level it would
    add ~0.15 s to every fresh process (the benchmark's ``setup_s`` times one),
    serving and cluster ones included, which never call a kernel that needs it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import repro.bench.experiments, repro.bench.trainer, repro.serve, repro.cluster; "
            "sys.exit('scipy.sparse' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr or "importing repro loaded scipy.sparse"
