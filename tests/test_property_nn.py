"""Property-based tests for the NN substrate and trainer invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro import tensor as T
from repro.tensor.segment import _scatter_add

from reference import scatter_add_reference

finite = st.floats(-5, 5, allow_nan=False, width=32)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 8), st.integers(1, 6)), elements=finite))
def test_gru_output_always_bounded(x):
    gru = nn.GRUCell(x.shape[1], 5)
    h = gru(T.Tensor(x), T.zeros(x.shape[0], 5))
    assert np.all(np.abs(h.numpy()) <= 1.0 + 1e-5)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 8), st.integers(2, 6)), elements=finite))
def test_layernorm_rows_standardized(x):
    ln = nn.LayerNorm(x.shape[1], elementwise_affine=False)
    out = ln(T.Tensor(x)).numpy()
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(np.float32, st.tuples(st.integers(1, 12)), elements=finite),
    hnp.arrays(np.float32, st.tuples(st.integers(1, 12)), elements=st.floats(0, 1, width=32)),
)
def test_bce_nonnegative_and_zero_at_perfect(logits, _):
    n = len(logits)
    targets = (logits > 0).astype(np.float32)
    loss = nn.bce_with_logits(T.Tensor(logits * 50), T.Tensor(targets)).item()
    assert loss >= -1e-6
    # Confident-correct logits give near-zero loss.
    assert loss < 0.05 or np.any(np.abs(logits) < 0.1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_adam_is_deterministic_given_seed(seed):
    def run():
        T.manual_seed(seed)
        lin = nn.Linear(4, 3)
        opt = nn.Adam(lin.parameters(), lr=1e-2)
        x = T.Tensor(np.random.default_rng(seed).standard_normal((5, 4)).astype(np.float32))
        for _ in range(3):
            opt.zero_grad()
            lin(x).sum().backward()
            opt.step()
        return lin.weight.data.copy()

    np.testing.assert_array_equal(run(), run())


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float32, st.tuples(st.integers(2, 10)), elements=finite))
def test_sgd_step_descends_quadratic(grad_seed):
    x = nn.Parameter(grad_seed.copy())
    opt = nn.SGD([x], lr=0.01)
    before = float((x.data ** 2).sum())
    loss = (T.Tensor(x.data) * 0).sum()  # build no graph; set grad directly
    x.grad = 2 * x.data
    opt.step()
    after = float((x.data ** 2).sum())
    assert after <= before + 1e-6


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 30)), elements=finite))
def test_time_encode_bounded_and_deterministic(deltas):
    enc = nn.TimeEncode(6)
    a = enc(T.Tensor(deltas)).numpy()
    b = enc.encode_raw(deltas)
    assert np.all(np.abs(a) <= 1 + 1e-6)
    np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(
    ids=hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, 9)),
    width=st.integers(0, 9),
    presorted=st.booleans(),
    extra_segments=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_scatter_kernel_matches_add_at(ids, width, presorted, extra_segments, seed):
    """Random ids x random widths, float32 and float64: the same bits as ``np.add.at``."""
    ids = np.sort(ids) if presorted else ids
    shape = (10 + extra_segments,) + ((width,) if width else ())
    values = np.random.default_rng(seed).standard_normal((len(ids),) + shape[1:])
    for vals in (values, values.astype(np.float32)):
        assert (_scatter_add(shape, ids, vals) == scatter_add_reference(shape, ids, vals)).all()
