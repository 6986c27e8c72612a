"""Tests for layers, cells, losses, optimizers, and TimeEncode."""

import numpy as np
import pytest

from repro import nn
from repro import tensor as T

from conftest import check_grad


class TestLinear:
    def test_output_shape_and_value(self):
        lin = nn.Linear(3, 2)
        x = T.randn(5, 3)
        out = lin(x)
        assert out.shape == (5, 2)
        expected = x.numpy() @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(out.numpy(), expected, rtol=1e-5)

    def test_no_bias(self):
        lin = nn.Linear(3, 2, bias=False)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_3d_input(self):
        lin = nn.Linear(3, 4)
        out = lin(T.randn(2, 5, 3))
        assert out.shape == (2, 5, 4)

    def test_gradients_flow(self):
        lin = nn.Linear(3, 2)
        lin(T.randn(4, 3)).sum().backward()
        assert lin.weight.grad.shape == (2, 3)
        assert lin.bias.grad.shape == (2,)

    def test_3d_weight_grad_matches_2d(self):
        # 3-D input is computed as its 2-D view: the weight gradient must
        # agree with the one of the flattened input.
        lin = nn.Linear(3, 2)
        x3 = T.randn(4, 5, 3)
        lin(x3).sum().backward()
        g3 = lin.weight.grad.copy()
        lin.zero_grad()
        lin(x3.reshape(20, 3)).sum().backward()
        np.testing.assert_allclose(g3, lin.weight.grad, rtol=1e-4)


class TestLayerNorm:
    def test_normalizes_rows(self):
        ln = nn.LayerNorm(8, elementwise_affine=False)
        out = ln(T.randn(10, 8) * 5 + 3).numpy()
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(10), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=1), np.ones(10), atol=1e-2)

    def test_affine_params(self):
        ln = nn.LayerNorm(4)
        assert len(list(ln.parameters())) == 2

    def test_grad(self):
        ln = nn.LayerNorm(4, elementwise_affine=False)
        check_grad(lambda x: ln(x), (3, 4), atol=5e-2)


class TestDropout:
    def test_identity_in_eval(self):
        d = nn.Dropout(0.5).eval()
        x = T.randn(10, 10)
        assert d(x) is x

    def test_scales_in_train(self):
        T.manual_seed(0)
        d = nn.Dropout(0.5)
        x = T.ones(100, 100)
        out = d(x).numpy()
        # Kept entries are scaled by 1/(1-p) = 2.
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs(out.mean() - 1.0) < 0.1

    def test_p_zero_is_identity(self):
        d = nn.Dropout(0.0)
        x = T.randn(4)
        assert d(x) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestActivationsAndMLP:
    def test_mlp_shape(self):
        mlp = nn.MLP(6, 12, 3)
        assert mlp(T.randn(4, 6)).shape == (4, 3)


class TestRNNCells:
    def test_gru_shapes_and_range(self):
        gru = nn.GRUCell(4, 6)
        h = gru(T.randn(3, 4), T.zeros(3, 6))
        assert h.shape == (3, 6)
        assert np.all(np.abs(h.numpy()) <= 1.0)

    def test_gru_matches_manual_reference(self):
        gru = nn.GRUCell(2, 3)
        x = np.random.default_rng(0).standard_normal((1, 2)).astype(np.float32)
        h = np.random.default_rng(1).standard_normal((1, 3)).astype(np.float32)
        out = gru(T.tensor(x), T.tensor(h)).numpy()

        def sig(v):
            return 1 / (1 + np.exp(-v))

        gi = x @ gru.weight_ih.data.T + gru.bias_ih.data
        gh = h @ gru.weight_hh.data.T + gru.bias_hh.data
        r = sig(gi[:, :3] + gh[:, :3])
        z = sig(gi[:, 3:6] + gh[:, 3:6])
        n = np.tanh(gi[:, 6:] + r * gh[:, 6:])
        expected = (1 - z) * n + z * h
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_rnn_matches_reference(self):
        cell = nn.RNNCell(2, 3)
        x = np.ones((1, 2), dtype=np.float32)
        h = np.zeros((1, 3), dtype=np.float32)
        out = cell(T.tensor(x), T.tensor(h)).numpy()
        expected = np.tanh(x @ cell.weight_ih.data.T + h @ cell.weight_hh.data.T + cell.bias.data)
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_cells_without_bias(self):
        assert nn.GRUCell(2, 3, bias=False).bias_ih is None
        assert nn.RNNCell(2, 3, bias=False).bias is None

    def test_gru_gradient_flows_to_both_inputs(self):
        gru = nn.GRUCell(2, 3)
        x = T.randn(2, 2, requires_grad=True)
        h = T.randn(2, 3, requires_grad=True)
        gru(x, h).sum().backward()
        assert x.grad is not None and h.grad is not None


class TestLosses:
    def test_bce_matches_reference(self):
        logits = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
        targets = np.array([0.0, 1.0, 1.0], dtype=np.float32)
        out = nn.bce_with_logits(T.tensor(logits), T.tensor(targets)).item()
        p = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert abs(out - expected) < 1e-5

    def test_bce_reductions(self):
        logits, targets = T.zeros(4), T.ones(4)
        total = nn.bce_with_logits(logits, targets, reduction="sum").item()
        mean = nn.bce_with_logits(logits, targets, reduction="mean").item()
        none = nn.bce_with_logits(logits, targets, reduction="none")
        assert abs(total - 4 * mean) < 1e-5
        assert none.shape == (4,)
        with pytest.raises(ValueError):
            nn.bce_with_logits(logits, targets, reduction="bogus")

    def test_bce_stable_for_large_logits(self):
        out = nn.bce_with_logits(T.tensor([100.0, -100.0]), T.tensor([1.0, 0.0])).item()
        assert np.isfinite(out) and out < 1e-4

    def test_bce_grad(self):
        targets = T.tensor([1.0, 0.0, 1.0])
        check_grad(lambda x: nn.bce_with_logits(x, targets, reduction="none"), (3,))


class TestOptimizers:
    def _quadratic_descent(self, optim_factory, steps=150):
        x = nn.Parameter(np.array([5.0, -3.0], dtype=np.float32))
        opt = optim_factory([x])
        for _ in range(steps):
            opt.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            opt.step()
        return np.abs(x.data).max()

    def test_sgd_converges(self):
        assert self._quadratic_descent(lambda p: nn.SGD(p, lr=0.1)) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_descent(lambda p: nn.SGD(p, lr=0.05, momentum=0.9)) < 1e-3

    def test_adam_converges(self):
        assert self._quadratic_descent(lambda p: nn.Adam(p, lr=0.2)) < 1e-2

    def test_weight_decay_shrinks(self):
        x = nn.Parameter(np.array([1.0], dtype=np.float32))
        opt = nn.SGD([x], lr=0.1, weight_decay=1.0)
        # Zero loss gradient: only decay acts.
        x.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert x.data[0] < 1.0

    def test_skips_params_without_grad(self):
        x = nn.Parameter(np.array([1.0], dtype=np.float32))
        nn.Adam([x], lr=0.1).step()
        assert x.data[0] == 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([nn.Parameter(np.ones(1, dtype=np.float32))], lr=0.0)


class TestTimeEncode:
    def test_zero_delta_gives_cos_bias(self):
        te = nn.TimeEncode(8)
        out = te(T.zeros(3)).numpy()
        np.testing.assert_allclose(out, np.cos(np.zeros((3, 8)) + te.bias.data), rtol=1e-5)

    def test_output_bounded(self):
        te = nn.TimeEncode(16)
        out = te(T.tensor(np.linspace(0, 1e6, 50, dtype=np.float32))).numpy()
        assert np.all(np.abs(out) <= 1.0 + 1e-6)

    def test_encode_raw_matches_forward(self):
        te = nn.TimeEncode(8)
        deltas = np.array([0.0, 1.0, 100.0], dtype=np.float32)
        np.testing.assert_array_equal(te.encode_raw(deltas), te(T.tensor(deltas)).numpy())

    def test_version_counter(self):
        te = nn.TimeEncode(4)
        v = te.version
        te.mark_updated()
        assert te.version == v + 1

    def test_trainable_flag(self):
        te = nn.TimeEncode(4, trainable=False)
        assert not te.weight.requires_grad
        te = nn.TimeEncode(4, trainable=True)
        out = te(T.tensor([1.0, 2.0]))
        out.sum().backward()
        assert te.weight.grad is not None

    def test_2d_input_accepted(self):
        te = nn.TimeEncode(4)
        assert te(T.zeros(5, 1)).shape == (5, 4)
