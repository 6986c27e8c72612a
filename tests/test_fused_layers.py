"""``Linear``, ``LayerNorm`` and ``TimeEncode``: one autograd node each.

Each module's forward is checked against a float64 numpy reference, its
hand-written backward against central differences (``conftest.check_grad``)
for the input and every parameter, and its output's parents against
``(input, *params)``.  The output is multiplied by a fixed random probe
before ``check_grad`` sums it, so that no gradient is trivially zero (a
row of ``LayerNorm`` sums to a constant).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.tensor import Tensor

from conftest import check_grad

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _probe(shape, seed):
    return Tensor(np.random.default_rng(seed + 1).standard_normal(shape).astype(np.float32))


def _randn(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _assert_one_node(out, *parents):
    assert len(out._prev) == len(parents) and all(a is b for a, b in zip(out._prev, parents))


def _linear(x, weight, bias):
    lin = nn.Linear(weight.shape[1], weight.shape[0])
    lin.weight, lin.bias = weight, bias
    return lin(x)


def _layer_norm(x, weight, bias):
    ln = nn.LayerNorm(x.shape[-1])
    ln.weight, ln.bias = weight, bias
    return ln(x)


def _time_encode(deltas, weight, bias):
    enc = nn.TimeEncode(weight.shape[0])
    enc.weight, enc.bias = weight, bias
    return enc(deltas)


@SETTINGS
@given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2), width=st.integers(1, 5),
       out=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_linear(lead, width, out, seed):
    """2-D and 3-D input."""
    rng = np.random.default_rng(seed)
    x, w, b = _randn(rng, (*lead, width)), _randn(rng, (out, width)), _randn(rng, (out,))
    expected = x.astype(np.float64) @ w.astype(np.float64).T + b
    leaves = [Tensor(t, requires_grad=True) for t in (x, w, b)]
    y = _linear(*leaves)
    assert y.shape == (*lead, out)
    np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-5)
    _assert_one_node(y, *leaves)

    probe = _probe((*lead, out), seed)
    check_grad(lambda x, w, b: _linear(x, w, b) * probe, x.shape, w.shape, b.shape, seed=seed)


@SETTINGS
@given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2), width=st.integers(3, 6),
       seed=st.integers(0, 2**16))
def test_layer_norm(lead, width, seed):
    """2-D and 3-D input."""
    rng = np.random.default_rng(seed)
    x, w, b = _randn(rng, (*lead, width)), _randn(rng, (width,)), _randn(rng, (width,))
    x64 = x.astype(np.float64)
    centered = x64 - x64.mean(axis=-1, keepdims=True)
    expected = centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    expected = expected * w + b
    leaves = [Tensor(t, requires_grad=True) for t in (x, w, b)]
    y = _layer_norm(*leaves)
    np.testing.assert_allclose(y.data, expected, rtol=1e-4, atol=1e-5)
    _assert_one_node(y, *leaves)

    probe = _probe(x.shape, seed)
    check_grad(lambda *t: _layer_norm(*t) * probe, x.shape, w.shape, b.shape, seed=seed, atol=5e-2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(c=st.floats(-1e3, 1e3, width=32), width=st.integers(2, 200), seed=st.integers(0, 2**16))
def test_layer_norm_constant_row_returns_bias(c, width, seed):
    """A constant row's float32 mean need not be the row's value; re-centering
    shrinks that residual until ``x̂ w`` vanishes next to ``b``."""
    rng = np.random.default_rng(seed)
    ln = nn.LayerNorm(width)
    ln.weight.data[:] = rng.uniform(0.5, 2.0, width)
    ln.bias.data[:] = rng.uniform(0.5, 2.0, width)
    out = ln(Tensor(np.full((3, width), c, dtype=np.float32))).data
    assert (out == ln.bias.data).all()


@SETTINGS
@given(n=st.integers(1, 6), dim=st.integers(1, 5), column=st.booleans(),
       deltas_grad=st.booleans(), seed=st.integers(0, 2**16))
def test_time_encode(n, dim, column, deltas_grad, seed):
    """``(N,)`` and ``(N, 1)`` deltas; a deltas gradient only when one is asked for."""
    rng = np.random.default_rng(seed)
    shape = (n, 1) if column else (n,)
    d, w, b = _randn(rng, shape), _randn(rng, (dim,)), _randn(rng, (dim,))
    expected = np.cos(d.reshape(-1, 1).astype(np.float64) * w + b)
    deltas = Tensor(d, requires_grad=deltas_grad)
    leaves = [Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)]
    y = _time_encode(deltas, *leaves)
    np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-5)
    _assert_one_node(y, deltas, *leaves)
    y.sum().backward()
    assert (deltas.grad is not None) == deltas_grad

    probe = _probe((n, dim), seed)
    if deltas_grad:
        check_grad(lambda d, w, b: _time_encode(d, w, b) * probe, shape, w.shape, b.shape,
                   seed=seed)
    else:
        fixed = Tensor(d)
        check_grad(lambda w, b: _time_encode(fixed, w, b) * probe, w.shape, b.shape, seed=seed)


@SETTINGS
@given(n=st.integers(1, 300), dim=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_time_encode_zero_is_forward_on_zero_deltas(n, dim, seed):
    """``TimeEncode.zero`` keeps one row and has ``forward``'s bits on ``n``
    zero deltas: the output, and both parameter gradients."""
    rng = np.random.default_rng(seed)
    w, b, g = _randn(rng, (dim,)), _randn(rng, (dim,)), _randn(rng, (n, dim))
    runs = []
    for encode in (lambda enc: enc(Tensor(np.zeros(n, dtype=np.float32))),
                   lambda enc: enc.zero(n, "cpu")):
        enc = nn.TimeEncode(dim)
        enc.weight.data[:], enc.bias.data[:] = w, b
        y = encode(enc)
        (y * Tensor(g)).sum().backward()
        runs.append((y, enc))
    (y_fwd, fwd), (y_zero, zero) = runs
    _assert_one_node(y_zero, zero.weight, zero.bias)
    assert y_zero.data.strides[0] == 0  # one broadcast row
    assert y_zero.data.tobytes() == y_fwd.data.tobytes()
    assert zero.weight.grad.tobytes() == fwd.weight.grad.tobytes()
    assert zero.bias.grad.tobytes() == fwd.bias.grad.tobytes()
