"""Unit tests for forward tensor semantics (no autograd)."""

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor


class TestCreation:
    def test_tensor_from_list_is_float32(self):
        t = T.tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_tensor_preserves_int_dtype(self):
        t = T.tensor(np.array([1, 2, 3], dtype=np.int64))
        assert t.dtype == np.int64

    def test_zeros_ones_full(self):
        assert T.zeros(2, 3).numpy().sum() == 0
        assert T.ones(2, 3).numpy().sum() == 6
        assert np.all(T.full((2, 2), 7.0).numpy() == 7.0)

    def test_zeros_accepts_shape_tuple(self):
        assert T.zeros((4, 5)).shape == (4, 5)

    def test_arange(self):
        assert T.arange(5).tolist() == [0, 1, 2, 3, 4]

    def test_randn_seeded_reproducible(self):
        T.manual_seed(5)
        a = T.randn(4).numpy().copy()
        T.manual_seed(5)
        b = T.randn(4).numpy()
        np.testing.assert_array_equal(a, b)

    def test_float64_input_downcast(self):
        t = T.tensor(np.array([1.0, 2.0], dtype=np.float64))
        assert t.dtype == np.float32


class TestArithmetic:
    def test_add_broadcast(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.tensor([10.0, 20.0])
        np.testing.assert_allclose((a + b).numpy(), [[11, 22], [13, 24]])

    def test_scalar_ops(self):
        a = T.tensor([2.0, 4.0])
        np.testing.assert_allclose((a * 3).numpy(), [6, 12])
        np.testing.assert_allclose((a - 1).numpy(), [1, 3])
        np.testing.assert_allclose((1 - a).numpy(), [-1, -3])
        np.testing.assert_allclose((a / 2).numpy(), [1, 2])
        np.testing.assert_allclose((8 / a).numpy(), [4, 2])
        np.testing.assert_allclose((-a).numpy(), [-2, -4])

    def test_pow(self):
        a = T.tensor([2.0, 3.0])
        np.testing.assert_allclose((a**2).numpy(), [4, 9])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            T.tensor([2.0]) ** T.tensor([2.0])

    def test_device_mismatch_raises(self):
        a = T.tensor([1.0])
        b = T.tensor([1.0], device="cuda")
        with pytest.raises(RuntimeError, match="device mismatch"):
            a + b

    def test_matmul_2d(self):
        a = T.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = T.tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        np.testing.assert_allclose((a @ b).numpy(), a.numpy() @ b.numpy())


class TestElementwise:
    def test_exp_log_roundtrip(self):
        a = T.tensor([0.5, 1.0, 2.0])
        np.testing.assert_allclose(a.exp().log().numpy(), a.numpy(), rtol=1e-5)

    def test_sigmoid_tanh_relu(self):
        a = T.tensor([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(a.sigmoid().numpy(), 1 / (1 + np.exp([1.0, 0.0, -1.0])), rtol=1e-5)
        np.testing.assert_allclose(a.tanh().numpy(), np.tanh([-1, 0, 1]), rtol=1e-5)
        np.testing.assert_allclose(a.relu().numpy(), [0, 0, 1])

    def test_clamp(self):
        a = T.tensor([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(a.clamp(min=0.0).numpy(), [0, 0.5, 3.0])

    def test_abs_sqrt(self):
        np.testing.assert_allclose(T.tensor([-3.0, 4.0]).abs().numpy(), [3, 4])
        np.testing.assert_allclose((T.tensor([4.0, 9.0]) ** 0.5).numpy(), [2, 3])


class TestReductions:
    def test_sum_all_and_dim(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10.0
        np.testing.assert_allclose(a.sum(dim=0).numpy(), [4, 6])
        np.testing.assert_allclose(a.sum(dim=1).unsqueeze(1).numpy(), [[3], [7]])

    def test_mean_var(self):
        a = T.tensor([[1.0, 3.0], [2.0, 6.0]])
        np.testing.assert_allclose(a.mean(dim=1).numpy(), [2, 4])
        var = ((a - a.mean(dim=1).unsqueeze(1)) ** 2).mean(dim=1)
        np.testing.assert_allclose(var.numpy(), [1, 4])

    def test_min(self):
        a = T.tensor([[1.0, 5.0], [9.0, 2.0]])
        assert a.min().item() == 1.0 and a.max().item() == 9.0


class TestShapes:
    def test_reshape_view(self):
        a = T.arange(6).float()
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.view(3, 2).shape == (3, 2)

    def test_transpose(self):
        a = T.randn(2, 3, 4)
        assert a.transpose(0, 2).shape == (4, 3, 2)

    def test_T_property(self):
        a = T.randn(2, 5)
        assert a.T.shape == (5, 2)
        with pytest.raises(RuntimeError):
            T.randn(2, 3, 4).T

    def test_squeeze_unsqueeze(self):
        a = T.randn(2, 1, 3)
        assert a.squeeze(1).shape == (2, 3)
        assert a.squeeze().shape == (2, 3)
        assert a.unsqueeze(0).shape == (1, 2, 1, 3)
        assert a.unsqueeze(-1).shape == (2, 1, 3, 1)

    def test_cat_and_stack(self):
        a, b = T.ones(2, 3), T.zeros(2, 3)
        assert T.cat([a, b], dim=0).shape == (4, 3)
        assert T.cat([a, b], dim=1).shape == (2, 6)
        assert T.stack([a, b]).shape == (2, 2, 3)

    def test_cat_empty_raises(self):
        with pytest.raises(ValueError):
            T.cat([])


class TestIndexing:
    def test_getitem_rows(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = a[np.array([2, 0])]
        np.testing.assert_allclose(out.numpy(), [[5, 6], [1, 2]])

    def test_getitem_with_tensor_index(self):
        a = T.tensor([10.0, 20.0, 30.0])
        idx = T.tensor(np.array([2, 1], dtype=np.int64))
        np.testing.assert_allclose(a[idx].numpy(), [30, 20])

    def test_setitem_on_leaf(self):
        a = T.zeros(3)
        a[np.array([1])] = T.tensor([5.0])
        np.testing.assert_allclose(a.numpy(), [0, 5, 0])

    def test_setitem_on_nonleaf_raises(self):
        a = T.Tensor(T.randn(3), requires_grad=True)
        b = a * 2
        with pytest.raises(RuntimeError, match="in-place"):
            b[0] = 1.0

    def test_masked_fill(self):
        a = T.tensor([1.0, 2.0, 3.0])
        out = a.masked_fill(np.array([True, False, True]), -1.0)
        np.testing.assert_allclose(out.numpy(), [-1, 2, -1])

    def test_index_put(self):
        base = T.zeros(4, 2)
        out = T.index_put(base, np.array([1, 3]), T.ones(2, 2))
        np.testing.assert_allclose(out.numpy(), [[0, 0], [1, 1], [0, 0], [1, 1]])

    def test_where(self):
        out = T.where(np.array([True, False]), T.tensor([1.0, 1.0]), T.tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), [1, 2])

    def test_unique(self):
        vals, inv = T.unique(T.tensor(np.array([3, 1, 3, 2], dtype=np.int64)), return_inverse=True)
        np.testing.assert_array_equal(vals.numpy(), [1, 2, 3])
        np.testing.assert_array_equal(vals.numpy()[inv.numpy()], [3, 1, 3, 2])


class TestSoftmaxAndComparisons:
    def test_softmax_rows_sum_to_one(self):
        a = T.randn(5, 7)
        s = a.softmax(dim=1).numpy()
        np.testing.assert_allclose(s.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_softmax_shift_invariant(self):
        a = T.tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(a.softmax().numpy(), (a + 100.0).softmax().numpy(), rtol=1e-5)

    def test_comparisons_return_bool_tensors(self):
        a = T.tensor([1.0, 2.0, 3.0])
        assert (a > 2.0).numpy().tolist() == [False, False, True]
        assert (a >= 2.0).numpy().tolist() == [False, True, True]
        assert (a < 2.0).numpy().tolist() == [True, False, False]
        assert (a <= 2.0).numpy().tolist() == [True, True, False]
        assert (a == 2.0).numpy().tolist() == [False, True, False]
        assert (a != 2.0).numpy().tolist() == [True, False, True]

    def test_maximum_minimum(self):
        a, b = T.tensor([1.0, 5.0]), T.tensor([3.0, 2.0])
        np.testing.assert_allclose(T.maximum(a, b).numpy(), [3, 5])
        np.testing.assert_allclose(T.minimum(a, b).numpy(), [1, 2])


class TestMisc:
    def test_item_and_len(self):
        assert T.tensor([7.0]).item() == 7.0
        assert len(T.zeros(4, 2)) == 4

    def test_size_dim(self):
        a = T.zeros(3, 4)
        assert a.size() == (3, 4)
        assert a.dim() == 2

    def test_detach_shares_data(self):
        a = T.Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        d.data[0] = 5.0
        assert a.numpy()[0] == 5.0

    def test_astype_conversions(self):
        a = T.tensor([1.5, 2.5])
        assert a.astype(np.int64).dtype == np.int64
        assert a.bool().dtype == np.bool_
        assert a.astype(np.int64).float().dtype == np.float32

    def test_requires_grad_rejects_ints(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_repr_mentions_grad_and_device(self):
        r = repr(T.Tensor([1.0], requires_grad=True, device="cuda"))
        assert "requires_grad=True" in r and "cuda" in r
