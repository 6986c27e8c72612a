"""Numeric gradient checks and autograd-engine behaviour tests."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor, cat, no_grad, is_grad_enabled

from conftest import check_grad
from reference import scatter_add_reference


class TestNumericGradients:
    """Each op's analytic gradient must match central differences."""

    def test_add(self):
        check_grad(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        check_grad(lambda a, b: a - b, (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_grad(lambda a, b: a * b, (2, 3), (1, 3))

    def test_div(self):
        check_grad(lambda a, b: a / b, (4,), (4,), positive=True)

    def test_neg(self):
        check_grad(lambda a: -a, (5,))

    def test_pow(self):
        check_grad(lambda a: a**3, (4,), positive=True)

    def test_matmul(self):
        check_grad(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_matmul_batched(self):
        check_grad(lambda a, b: a @ b, (2, 3, 4), (2, 4, 2))

    def test_matmul_nd_with_2d(self):
        # The shared-weight fast path in backward.
        check_grad(lambda a, b: a @ b, (2, 3, 4), (4, 5))

    def test_matvec(self):
        check_grad(lambda a, b: a @ b, (3, 4), (4,))

    def test_exp(self):
        check_grad(lambda a: a.exp(), (4,))

    def test_log(self):
        check_grad(lambda a: a.log(), (4,), positive=True)

    def test_tanh_sigmoid(self):
        check_grad(lambda a: a.tanh(), (5,))
        check_grad(lambda a: a.sigmoid(), (5,))

    def test_relu(self):
        check_grad(lambda a: a.relu(), (6,), positive=True)

    def test_abs(self):
        check_grad(lambda a: a.abs(), (5,), positive=True)

    def test_clamp(self):
        check_grad(lambda a: a.clamp(min=0.6, max=1.4) * 2.0, (6,), positive=True, atol=5e-2)

    def test_sum_dims(self):
        check_grad(lambda a: a.sum(dim=1), (3, 4))
        check_grad(lambda a: a.sum(dim=0, keepdim=True), (3, 4))

    def test_mean_var(self):
        check_grad(lambda a: a.mean(dim=1), (3, 4))
        check_grad(lambda a: ((a - a.mean(dim=1, keepdim=True)) ** 2).mean(dim=1), (3, 4))

    def test_max_global_and_dim(self):
        check_grad(lambda a: a.max(), (7,))
        check_grad(lambda a: a.max(dim=1)[0], (3, 4))

    def test_reshape_transpose(self):
        check_grad(lambda a: a.reshape(6) * T.tensor(np.arange(6, dtype=np.float32)), (2, 3))
        check_grad(lambda a: a.transpose(0, 1) @ a, (3, 4))

    def test_squeeze_unsqueeze(self):
        check_grad(lambda a: a.unsqueeze(1).tanh().squeeze(1), (3, 2))

    def test_cat(self):
        check_grad(lambda a, b: T.cat([a, b], dim=0).sigmoid(), (2, 3), (4, 3))

    def test_stack(self):
        check_grad(lambda a, b: T.stack([a, b], dim=1).exp(), (3, 2), (3, 2))

    def test_where(self):
        mask = np.array([True, False, True, False])
        check_grad(lambda a, b: T.where(mask, a, b) ** 2, (4,), (4,))

    def test_maximum_minimum(self):
        check_grad(lambda a, b: T.maximum(a, b) * 2.0, (5,), (5,))
        check_grad(lambda a, b: T.minimum(a, b) * 2.0, (5,), (5,))

    def test_getitem(self):
        idx = np.array([2, 0, 2])
        check_grad(lambda a: a[idx].exp(), (4, 2))

    def test_index_put(self):
        idx = np.array([0, 2])
        check_grad(lambda a, b: T.index_put(a, idx, b).sigmoid(), (4, 2), (2, 2))

    def test_masked_fill(self):
        mask = np.array([False, True, False])
        check_grad(lambda a: a.masked_fill(mask, 5.0).exp(), (3,))

    def test_softmax(self):
        check_grad(lambda a: a.softmax(dim=1) * T.tensor(np.arange(8, dtype=np.float32).reshape(2, 4)), (2, 4))

    def test_composite_expression(self):
        check_grad(
            lambda a, b: ((a @ b).relu().softmax(dim=1) * (a @ b).sigmoid()).mean(dim=0),
            (4, 3),
            (3, 5),
        )


class TestEngineBehaviour:
    def test_backward_accumulates_on_leaves(self):
        a = T.tensor([1.0, 2.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 3).sum().backward()
        np.testing.assert_allclose(a.grad, [5, 5])

    def test_zero_grad(self):
        a = T.tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph(self):
        # y = x*x + x*x must give dy/dx = 4x through shared subexpressions.
        x = T.tensor([3.0], requires_grad=True)
        sq = x * x
        y = sq + sq
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_reused_tensor_many_paths(self):
        x = T.tensor([2.0], requires_grad=True)
        y = x * x * x  # x^3, dy/dx = 3x^2 = 12
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_backward_requires_scalar_or_seed(self):
        a = T.randn(3, requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()
        (a * 2).backward(np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(a.grad, [2, 2, 2])

    def test_backward_on_no_grad_tensor_raises(self):
        a = T.tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_seed_shape_mismatch_raises(self):
        a = T.randn(3, requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward(np.ones(4, dtype=np.float32))

    def test_no_grad_blocks_graph(self):
        a = T.tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out.is_leaf

    def test_no_grad_nesting_and_flag(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        a = T.tensor([1.0], requires_grad=True)
        out = (a * 2).detach() * 3
        assert not out.requires_grad

    def test_to_device_keeps_graph(self):
        a = T.tensor([2.0], requires_grad=True)
        b = a.to("cuda") * 3
        b.sum().backward()
        np.testing.assert_allclose(a.grad, [3.0])

    def test_intermediate_grads_not_retained(self):
        a = T.tensor([1.0], requires_grad=True)
        mid = a * 2
        out = mid * 3
        out.sum().backward()
        assert mid.grad is None
        assert a.grad is not None

    def test_astype_float_keeps_graph(self):
        a = T.tensor([1.0], requires_grad=True)
        a.astype(np.float64).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_grad_dtype_matches_leaf(self):
        a = T.tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        assert a.grad.dtype == np.float32


class TestIndexBackward:
    """``x[key]``'s gradient against a sequential ``np.add.at`` reference."""

    SHAPE = (6, 5, 4)

    def _grad_and_reference(self, key, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(self.SHAPE).astype(np.float32), requires_grad=True)
        out = x[key]
        seed_grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(seed_grad)
        return x.grad, scatter_add_reference(self.SHAPE, key, seed_grad)

    @pytest.mark.parametrize("key", [
        slice(1, 4), (slice(None), slice(1, 3)), slice(None, None, 2), slice(None, None, -1),
        3, np.int64(2), (Ellipsis, 1), None, (None, slice(2, 5), Ellipsis, slice(0, 4, 3)),
        (2, None, slice(1, None), -1),
    ], ids=repr)
    def test_basic_key_is_exact(self, key):
        """A basic key addresses each target once: assignment, not a sum."""
        grad, ref = self._grad_and_reference(key)
        assert grad.dtype == np.float32 and (grad == ref).all()

    @pytest.mark.parametrize("key", [
        np.array([0, 0, 5, 2, 0, 2]),                     # repeats, unsorted
        np.array([0, 0, 2, 2, 2, 5]),                     # repeats, sorted
        np.array([-1, 5, 0, -6]),                         # negative ids alias positive ones
        np.array([], dtype=np.int64),
        np.array([[0, 1], [1, 0]]),                       # 2-D integer array
        np.array([True, False, True, True, False, False]),
        (np.array([0, 0, 3, 0]), np.array([1, 1, 4, 1])),  # integer tuple (rows, cols)
        (np.array([1, 1, 4]), slice(1, 3)),
        [0, 0, 3],
    ], ids=lambda k: repr(k).replace("\n", ""))
    def test_advanced_key_sums_repeats(self, key):
        grad, ref = self._grad_and_reference(key)
        np.testing.assert_allclose(grad, ref, atol=1e-6, rtol=0)

    def test_slices_add_into_one_gradient(self):
        """Overlapping, strided and negative-step slices of one tensor each add
        into the parent's gradient in place: the sum of a full-width
        zeros-and-assign per slice (integer-valued, so exact in any order)."""
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((9, 3)).astype(np.float32), requires_grad=True)
        keys = [(slice(1, 6),), (slice(3, 8),), (slice(None, None, 2),),
                (slice(None, None, -1),), (slice(7, 0, -3), slice(1, None)), (4,)]
        seeds = [rng.integers(-4, 5, x.data[key].shape).astype(np.float32) for key in keys]
        total = None
        for key, seed in zip(keys, seeds):
            term = (x[key] * Tensor(seed)).sum()
            total = term if total is None else total + term
        total.backward()
        want = np.zeros_like(x.data)
        for key, seed in zip(keys, seeds):
            full = np.zeros_like(x.data)
            full[key] = seed
            want += full
        assert x.grad.dtype == np.float32 and (x.grad == want).all()

    def test_a_slice_never_writes_a_borrowed_gradient(self):
        x = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
        mine = np.ones((4, 2), dtype=np.float32)
        x._accumulate(mine)                      # borrowed
        x[1:3].backward(np.full((2, 2), 2.0, dtype=np.float32))
        assert (mine == 1.0).all() and x.grad is not mine
        assert (x.grad == [[1, 1], [3, 3], [3, 3], [1, 1]]).all()
        owned = x.grad
        x[::-2].backward(np.ones((2, 2), dtype=np.float32))  # owned: written in place
        assert x.grad is owned and (x.grad == [[1, 1], [4, 4], [3, 3], [2, 2]]).all()

    def test_tensor_index_sums_repeats(self):
        rng = np.random.default_rng(1)
        idx = np.array([3, 0, 3, 3, 1])
        x = Tensor(rng.standard_normal(self.SHAPE).astype(np.float32), requires_grad=True)
        out = x[Tensor(idx)]
        seed_grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(seed_grad)
        np.testing.assert_allclose(
            x.grad, scatter_add_reference(self.SHAPE, idx, seed_grad), atol=1e-6, rtol=0)

    def test_first_write_adopts_an_owned_buffer_but_never_the_callers(self):
        x = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
        mine = np.ones((4, 2), dtype=np.float32)
        x._accumulate(mine)                      # borrowed: held, not copied ...
        assert x.grad is mine
        x._accumulate(mine)                      # ... and never written
        assert x.grad is not mine and (mine == 1.0).all() and (x.grad == 2.0).all()
        summed = x.grad
        x._accumulate(mine)                      # the sum is ours: in place from here on
        assert x.grad is summed and (x.grad == 3.0).all() and (mine == 1.0).all()
        x.grad = None
        x._accumulate(mine, own=True)            # handed over: adopted and written
        x._accumulate(np.ones((4, 2), dtype=np.float32))
        assert x.grad is mine and (mine == 2.0).all()
        x.grad = None
        wide = np.ones((4, 2), dtype=np.float64)
        x._accumulate(wide)                      # wrong dtype: cast, and the cast is ours
        x._accumulate(wide)
        assert x.grad.dtype == np.float32 and (x.grad == 2.0).all() and (wide == 1.0).all()
        # A slice's upstream gradient must survive the downstream accumulate.
        y = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
        seed_grad = np.full((2, 2), 3.0, dtype=np.float32)
        (y[1:3] + y[1:3]).backward(seed_grad)
        assert (seed_grad == 3.0).all() and (y.grad[1:3] == 6.0).all()


class TestGradientHandOff:
    """``_accumulate`` holds gradients by reference and writes only buffers it owns."""

    @pytest.mark.parametrize("op, expected", [
        (lambda x: x + x, lambda x, g: 2 * g),
        (lambda x: x * x, lambda x, g: 2 * x * g),
        (lambda x: cat([x, x], dim=0)[:3] + cat([x, x], dim=0)[3:], lambda x, g: 2 * g),
    ], ids=["x+x", "x*x", "cat([x,x])"])
    def test_one_tensor_used_twice(self, op, expected):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        seed = rng.standard_normal((3, 2)).astype(np.float32)
        kept = seed.copy()
        op(x).backward(seed)
        np.testing.assert_allclose(x.grad, expected(x.data, kept), rtol=1e-6)
        assert (seed == kept).all()

    def test_user_seed_is_not_mutated_by_a_second_backward(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        seed = np.full(3, 2.0, dtype=np.float32)
        x.backward(seed)
        x.backward(seed)
        assert (seed == 2.0).all() and (x.grad == 4.0).all()

    def test_read_only_broadcast_view_is_a_valid_gradient(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        view = np.broadcast_to(np.float32(0.5), (4, 3))
        assert not view.flags.writeable
        (x * 2.0).backward(view)
        (x * 2.0).backward(view)
        assert (x.grad == 2.0).all()

    def test_no_backward_closure_or_optimizer_writes_a_gradient_in_place(self):
        """Every gradient may be borrowed, so only ``_accumulate`` may write one."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        write = re.compile(r"\bgrad\s*(\[[^\]]*\])?\s*[-+*/@]=|\bgrad\[[^\]]*\]\s*=(?!=)|out=grad\b")
        hits = [f"{path.relative_to(src)}: {line.strip()}"
                for sub in ("tensor", "nn", "models")
                for path in sorted((src / sub).rglob("*.py"))
                for line in path.read_text().splitlines() if write.search(line)]
        assert hits == ["tensor/tensor.py: self.grad[key] = grad",
                        "tensor/tensor.py: self.grad[key] += grad",
                        "tensor/tensor.py: self.grad += grad"]
