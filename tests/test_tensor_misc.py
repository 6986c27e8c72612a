"""Additional tensor-backend coverage: helpers and corner cases."""

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor
from repro.tensor.functional import dropout_mask
from repro.tensor.random import dropout_pass, dropout_step


def _keyed_mask(pass_index=0, start=0, ordinal=0, seed=3, shape=(301, 7), p=0.3):
    """The *ordinal*-th mask of the step at ``(pass_index, start)``."""
    T.manual_seed(seed)
    dropout_pass(pass_index)
    dropout_step(start)
    try:
        for _ in range(ordinal):
            dropout_mask((5,), p)
        return dropout_mask(shape, p).numpy()
    finally:
        dropout_pass(0)


class TestDropoutMask:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_keep_rate_within_binomial_bound(self, p):
        n = 301 * 133  # odd: the last word contributes one half
        for start in (0, 600):
            kept = (_keyed_mask(start=start, shape=(301, 133), p=p) > 0).sum()
            sd = np.sqrt(n * p * (1 - p))
            assert abs(kept - n * (1 - p)) < 5 * sd, (p, start, kept)

    def test_equal_key_equal_mask(self):
        np.testing.assert_array_equal(_keyed_mask(1, 300, 2), _keyed_mask(1, 300, 2))

    @pytest.mark.parametrize("moved", [dict(pass_index=1), dict(start=300),
                                       dict(ordinal=1), dict(seed=4)])
    def test_mask_moves_with_each_key_part(self, moved):
        base = _keyed_mask()
        other = _keyed_mask(**moved)
        assert (base != other).mean() > 0.3  # 2 p (1 - p) = 0.42 if independent

    def test_scaling_preserves_expectation(self):
        T.manual_seed(0)
        mask = dropout_mask((200, 200), 0.3)
        assert abs(mask.numpy().mean() - 1.0) < 0.05

    def test_zero_prob_keeps_everything(self):
        mask = dropout_mask((10,), 0.0)
        np.testing.assert_allclose(mask.numpy(), np.ones(10))

    def test_device_placement(self):
        assert dropout_mask((4,), 0.5, device="cuda").device.is_cuda


class TestTensorCorners:
    def test_scalar_tensor_operations(self):
        s = T.tensor(3.0)
        assert s.shape == ()
        assert (s * 2).item() == 6.0

    def test_empty_tensor_ops(self):
        e = T.zeros(0, 4)
        assert (e * 2).shape == (0, 4)
        assert e.sum().item() == 0.0
        assert T.cat([e, T.ones(2, 4)]).shape == (2, 4)

    def test_bool_of_multielement_raises(self):
        with pytest.raises(ValueError):
            bool(T.tensor([1.0, 2.0]))

    def test_chained_views_backward(self):
        x = T.Tensor(T.randn(2, 3), requires_grad=True)
        y = x.reshape(6).unsqueeze(0).squeeze(0).reshape(3, 2).transpose(0, 1)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_grad_through_repeated_cat(self):
        x = T.Tensor([1.0], requires_grad=True)
        out = T.cat([x, x, x])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_max_tie_gradient_splits(self):
        x = T.Tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad.sum(), 1.0)

    def test_softmax_on_single_element_rows(self):
        out = T.randn(4, 1).softmax(dim=1)
        np.testing.assert_allclose(out.numpy(), np.ones((4, 1)), rtol=1e-6)

    def test_getitem_bool_mask(self):
        a = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        picked = a[np.array([True, False, True])]
        np.testing.assert_allclose(picked.numpy(), [1, 3])
        picked.sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0, 1])

    def test_getitem_tuple_index(self):
        a = T.Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        out = a[np.array([0, 2]), np.array([1, 3])]
        np.testing.assert_allclose(out.numpy(), [1, 11])
        out.sum().backward()
        assert a.grad[0, 1] == 1 and a.grad[2, 3] == 1

    def test_where_scalar_broadcast(self):
        out = T.where(np.array([True, False]), T.tensor([1.0, 1.0]), T.zeros(2))
        np.testing.assert_allclose(out.numpy(), [1, 0])

    def test_tensor_index_into_tensor(self):
        a = T.tensor([5.0, 6.0, 7.0])
        idx = T.tensor(np.array([0, 2], dtype=np.int64))
        np.testing.assert_allclose(a[idx].numpy(), [5, 7])
