"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core as tg
from repro import tensor as T
from repro.bench.metrics import average_precision
from repro.core import op as tgop
from repro.core.op.dedup import unique_node_times
from repro.tensor.segment import segment_mean, segment_softmax, segment_sum

finite_f32 = st.floats(-10, 10, allow_nan=False, width=32)


@st.composite
def array_pairs_broadcastable(draw):
    """Two float arrays whose shapes broadcast together."""
    base = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    variant = [draw(st.sampled_from([d, 1])) for d in base]
    a = draw(hnp.arrays(np.float32, tuple(base), elements=finite_f32))
    b = draw(hnp.arrays(np.float32, tuple(variant), elements=finite_f32))
    return a, b


@settings(max_examples=40, deadline=None)
@given(array_pairs_broadcastable())
def test_add_grad_shapes_match_inputs(pair):
    a_np, b_np = pair
    a = T.Tensor(a_np, requires_grad=True)
    b = T.Tensor(b_np, requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == a_np.shape
    assert b.grad.shape == b_np.shape
    # Broadcasting conserves total gradient mass for addition.
    assert a.grad.sum() == np.prod(np.broadcast_shapes(a_np.shape, b_np.shape))


@settings(max_examples=40, deadline=None)
@given(array_pairs_broadcastable())
def test_mul_forward_matches_numpy(pair):
    a_np, b_np = pair
    out = (T.Tensor(a_np) * T.Tensor(b_np)).numpy()
    np.testing.assert_allclose(out, a_np * b_np, rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(np.float32, st.tuples(st.integers(1, 30)), elements=finite_f32),
    st.integers(1, 6),
    st.randoms(),
)
def test_segment_softmax_is_partition_of_unity(scores, num_segments, rnd):
    ids = np.array([rnd.randrange(num_segments) for _ in range(len(scores))], dtype=np.int64)
    out = segment_softmax(T.Tensor(scores), ids, num_segments).numpy()
    for seg in range(num_segments):
        mask = ids == seg
        if mask.any():
            assert abs(out[mask].sum() - 1.0) < 1e-4
    assert np.all(out >= 0)


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(np.float32, st.tuples(st.integers(1, 25), st.integers(1, 4)), elements=finite_f32),
    st.integers(1, 5),
    st.randoms(),
)
def test_segment_sum_conserves_mass(values, num_segments, rnd):
    ids = np.array([rnd.randrange(num_segments) for _ in range(values.shape[0])], dtype=np.int64)
    out = segment_sum(T.Tensor(values), ids, num_segments).numpy()
    np.testing.assert_allclose(out.sum(axis=0), values.sum(axis=0), atol=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(np.float32, st.tuples(st.integers(1, 25), st.integers(1, 3)), elements=finite_f32),
    st.randoms(),
)
def test_segment_mean_bounded_by_extremes(values, rnd):
    ids = np.array([rnd.randrange(3) for _ in range(values.shape[0])], dtype=np.int64)
    out = segment_mean(T.Tensor(values), ids, 3).numpy()
    for seg in range(3):
        mask = ids == seg
        if mask.any():
            assert np.all(out[seg] <= values[mask].max(axis=0) + 1e-4)
            assert np.all(out[seg] >= values[mask].min(axis=0) - 1e-4)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5)), min_size=1, max_size=40)
)
def test_dedup_inverse_is_exact(pairs):
    nodes = np.array([p[0] for p in pairs], dtype=np.int64)
    times = np.array([float(p[1]) for p in pairs])
    un, ut, inv = unique_node_times(nodes, times)
    # Round trip: unique pairs expand back to the originals.
    np.testing.assert_array_equal(un[inv], nodes)
    np.testing.assert_allclose(ut[inv], times)
    # Uniqueness: no duplicate (node, time) pair remains.
    combined = un * 1000 + ut.astype(np.int64)
    assert len(np.unique(combined)) == len(un)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=50), st.randoms())
def test_sampler_never_sees_future(times, rnd):
    """Temporal constraint: sampled edges are strictly earlier than queries."""
    m = len(times)
    src = np.array([rnd.randrange(5) for _ in range(m)], dtype=np.int64)
    dst = np.array([(s + 1 + rnd.randrange(4)) % 5 for s in src], dtype=np.int64)
    g = tg.TGraph(src, dst, np.array(times), num_nodes=5)
    ctx = tg.TContext(g)
    query_t = float(np.median(times))
    blk = tg.TBlock(ctx, 0, np.arange(5), np.full(5, query_t))
    tg.TSampler(4, "recent").sample(blk)
    assert np.all(blk.etimes < query_t)
    # dstindex refers to valid destinations.
    if blk.num_src:
        assert blk.dstindex.max() < blk.num_dst


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=50),
    st.randoms(),
)
def test_average_precision_in_unit_interval(labels, rnd):
    labels = np.array(labels)
    scores = np.array([rnd.random() for _ in labels])
    ap = average_precision(labels, scores)
    assert 0.0 <= ap <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 30), st.randoms())
def test_average_precision_perfect_and_monotone(n, rnd):
    labels = np.array([rnd.randrange(2) for _ in range(n)])
    if labels.sum() == 0:
        labels[0] = 1
    perfect = average_precision(labels, labels.astype(float))
    assert perfect == 1.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 100)),
             min_size=1, max_size=40)
)
def test_graph_csr_roundtrip(edges):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    ts = np.array([float(e[2]) for e in edges])
    g = tg.TGraph(src, dst, ts, num_nodes=7)
    csr = g.csr()
    # Every undirected incidence appears exactly once per endpoint.
    assert len(csr.indices) == 2 * g.num_edges
    for v in range(7):
        lo, hi = csr.indptr[v], csr.indptr[v + 1]
        assert np.all(np.diff(csr.etimes[lo:hi]) >= 0)
        for pos in range(lo, hi):
            e = csr.eids[pos]
            assert v in (g.src[e], g.dst[e])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.floats(0, 100, allow_nan=False)),
             min_size=1, max_size=30)
)
def test_coalesce_keeps_latest_per_node(rows):
    dstnodes = np.array([r[0] for r in rows], dtype=np.int64)
    etimes = np.array([r[1] for r in rows])
    g = tg.TGraph([0], [1], [1.0], num_nodes=5)
    ctx = tg.TContext(g)
    blk = tg.TBlock(ctx, 0, dstnodes, etimes)
    blk.set_nbrs(
        (dstnodes + 1) % 5,
        np.zeros(len(rows), dtype=np.int64),
        etimes,
        np.arange(len(rows), dtype=np.int64),
    )
    tgop.coalesce(blk, by="latest")
    assert len(np.unique(blk.dstnodes)) == blk.num_dst
    for node in np.unique(dstnodes):
        expected = etimes[dstnodes == node].max()
        got = blk.etimes[blk.dstnodes == node]
        assert got.shape == (1,)
        assert got[0] == expected


@settings(max_examples=20, deadline=None)
@given(
    hnp.arrays(np.float32, st.tuples(st.integers(1, 10), st.integers(1, 4)),
               elements=finite_f32),
    st.randoms(),
)
def test_index_put_then_read_roundtrip(values, rnd):
    n = values.shape[0] + 3
    base = T.zeros(n, values.shape[1])
    idx = np.array(rnd.sample(range(n), values.shape[0]), dtype=np.int64)
    out = T.index_put(base, idx, T.Tensor(values)).numpy()
    np.testing.assert_allclose(out[idx], values)
    untouched = np.setdiff1d(np.arange(n), idx)
    assert np.all(out[untouched] == 0)
