"""The fused segment-attention op against the composed tape it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core as tg
from repro.core import op as tgop
from repro.data import get_dataset
from repro.models import TGAT, OptFlags, TemporalAttnLayer
from repro.nn import Linear, TimeEncode
from repro.tensor import Tensor, no_grad
from repro.tensor import segment as segment_module
from repro.tensor.segment import segment_attention
from repro.tgl import TGLAttnLayer
from repro.tgl.mfg import MFG

from reference import composed_attention


def _problem(rng, num_dst, ids, heads, widths, keyed, grads, d_head=3):
    """Random inputs for one attention call.

    Part *i* is ``widths[i]`` wide; ``keyed[i]`` makes it ``(rows, index)``
    over fewer rows than ``len(ids)``; ``grads[i]`` makes it require grad.
    """
    n, dim = len(ids), heads * d_head
    randn = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
    q = Tensor(randn(num_dst, dim), requires_grad=True)
    parts = []
    for width, is_keyed, grad in zip(widths, keyed, grads):
        if is_keyed:
            rows = Tensor(randn(max(1, n // 3), width), requires_grad=grad)
            parts.append((rows, rng.integers(0, len(rows.data), n)))
        else:
            parts.append(Tensor(randn(n, width), requires_grad=grad))
    return q, parts, Linear(sum(widths), dim), Linear(sum(widths), dim)


def _fused(q, parts, w_k, w_v, ids, num_dst, heads):
    return segment_attention(q, parts, w_k.weight, w_k.bias, w_v.weight, w_v.bias,
                             ids, num_dst, heads)


def _composed(q, parts, w_k, w_v, ids, num_dst, heads):
    """The oracle on the same leaves: a keyed part is expanded by a gather."""
    dense = [p[0][p[1]] if isinstance(p, tuple) else p for p in parts]
    return composed_attention(q, dense, w_k, w_v, ids, num_dst, heads)


def _outputs_and_grads(fn, q, parts, w_k, w_v, ids, num_dst, heads, seed_grad):
    leaves = [q, *(p[0] if isinstance(p, tuple) else p for p in parts),
              w_k.weight, w_k.bias, w_v.weight, w_v.bias]
    for leaf in leaves:
        leaf.grad = None
    out = fn(q, parts, w_k, w_v, ids, num_dst, heads)
    if out.requires_grad:
        out.backward(seed_grad)
    return out.data, [leaf.grad for leaf in leaves]


def _assert_matches_composed(q, parts, w_k, w_v, ids, num_dst, heads, rng):
    seed_grad = rng.standard_normal((num_dst, q.shape[1])).astype(np.float32)
    args = (q, parts, w_k, w_v, ids, num_dst, heads, seed_grad)
    out, grads = _outputs_and_grads(_fused, *args)
    ref_out, ref_grads = _outputs_and_grads(_composed, *args)
    np.testing.assert_allclose(out, ref_out, atol=1e-5, rtol=0)
    for grad, ref in zip(grads, ref_grads):
        if grad is None:  # no grad required, or no rows: the fused output is a constant
            assert ref is None or not (len(ids) or ref.any())
        else:
            np.testing.assert_allclose(grad, ref, rtol=1e-4, atol=1e-5)


class TestAgainstComposedReference:
    @pytest.mark.parametrize("keyed", [(False, False, False), (True, True, False)],
                             ids=["dense", "keyed"])
    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    def test_outputs_and_every_gradient(self, keyed, sort):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 40, 300)
        ids = np.sort(ids) if sort else ids
        problem = _problem(rng, 40, ids, heads=2, widths=(7, 5, 4), keyed=keyed,
                           grads=(True, False, True))
        _assert_matches_composed(*problem, ids, 40, 2, rng)

    def test_keyed_and_dense_parts_agree(self):
        """A keyed part gives its dense expansion's forward bits, and its gradient
        summed per key.

        Both are projected, added in part order and biased the same way, so the
        forward is exact as far as BLAS gives a row of ``rows @ W`` the same
        bits whatever the number of rows.  That holds once each product has
        over ~2 k outputs; below that boundary OpenBLAS takes gemv for a
        one-row product and, on AVX-512 hosts, a small-matrix kernel for one
        of at most 1 200 outputs, and keyed and dense agree to rounding only.
        The layers' keyed parts have hundreds of rows.
        """
        # (seed, part widths, heads, d_head): the original narrow draw, TGAT's widths, one head
        for seed, widths, heads, d_head in [(1, (6, 4), 2, 3), (2, (172, 32), 2, 16),
                                            (3, (100, 8), 1, 50)]:
            rng = np.random.default_rng(seed)
            ids = np.sort(rng.integers(0, 25, 200))
            q, parts, w_k, w_v = _problem(rng, 25, ids, heads, widths, (True, False),
                                          (True, True), d_head=d_head)
            rows, index = parts[0]
            seed_grad = rng.standard_normal((25, q.shape[1])).astype(np.float32)
            keyed = _outputs_and_grads(_fused, q, parts, w_k, w_v, ids, 25, heads, seed_grad)
            expanded = Tensor(rows.data[index], requires_grad=True)
            dense = _outputs_and_grads(_fused, q, [expanded, parts[1]], w_k, w_v, ids, 25,
                                       heads, seed_grad)
            assert (keyed[0] == dense[0]).all(), widths
            summed = np.zeros_like(rows.data)
            np.add.at(summed, index, dense[1][1])  # the dense part's gradient, summed per key
            for grad, ref in zip(keyed[1], [dense[1][0], summed, *dense[1][2:]]):
                np.testing.assert_allclose(grad, ref, rtol=1e-4, atol=1e-5)

    def test_no_rows_gives_a_constant_zero(self):
        q, parts, w_k, w_v = _problem(np.random.default_rng(2), 4, np.empty(0, np.int64), 1,
                                      (3,), (False,), (True,))
        out = _fused(q, parts, w_k, w_v, np.empty(0, np.int64), 4, 1)
        assert not out.requires_grad and out.shape == (4, 3) and not out.data.any()

    def test_mismatched_parts_are_rejected(self):
        rng = np.random.default_rng(3)
        ids = np.zeros(5, dtype=np.int64)
        q, parts, w_k, w_v = _problem(rng, 1, ids, 1, (3, 2), (False, False), (False, False))
        with pytest.raises(ValueError, match="in_features"):
            _fused(q, parts[:1], w_k, w_v, ids, 1, 1)
        with pytest.raises(ValueError, match="one row per segment id"):
            _fused(q, [parts[0], Tensor(parts[1].data[:3])], w_k, w_v, ids, 1, 1)
        rows = Tensor(parts[0].data[:2])
        for bad in (2, -3):  # a keyed part's index must address its rows
            with pytest.raises(IndexError, match="out of range"):
                _fused(q, [(rows, np.array([0, 1, bad, 0, 1])), parts[1]], w_k, w_v, ids, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_dst=st.integers(1, 6), num_src=st.integers(0, 14),
           heads=st.sampled_from([1, 2]), sort=st.booleans())
    def test_random_layouts(self, data, num_dst, num_src, heads, sort):
        """Empty segments, single-neighbor destinations, no rows at all, unsorted ids."""
        problem, ids, rng = _drawn_problem(data, num_dst, num_src, heads, sort)
        _assert_matches_composed(*problem, ids, num_dst, heads, rng)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), num_dst=st.integers(1, 6), num_src=st.integers(1, 14),
           heads=st.sampled_from([1, 2]), sort=st.booleans())
    def test_key_bias_gradient_is_exactly_zero(self, data, num_dst, num_src, heads, sort):
        """Adding ``b_k`` to every key shifts a segment's scores by one constant per
        head, which its softmax ignores: the gradient is 0, not rounding noise
        that Adam would scale up into lr-sized steps."""
        (q, parts, w_k, w_v), ids, rng = _drawn_problem(data, num_dst, num_src, heads, sort)
        out = _fused(q, parts, w_k, w_v, ids, num_dst, heads)
        out.backward(rng.standard_normal(out.shape).astype(np.float32))
        assert w_k.bias.grad is not None and not w_k.bias.grad.any()
        assert w_v.bias.grad.any()


#: row-tile sizes: one row, a few rows, and more rows than any problem here.
TILES = [1, 7, 1 << 20]


class TestTimePart:
    """A time part ``TimeEncode.part(deltas)`` against the encoder's output
    passed as a dense part: the same bits, forward and every gradient."""

    @staticmethod
    def _leaves_and_parts(rng, n, first):
        """Leaves, and a ``parts(time)`` builder putting *time* last (or first)."""
        randn = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
        dense = Tensor(randn(n, 5), requires_grad=True)
        keyed = (Tensor(randn(max(1, n // 4), 3), requires_grad=True),
                 rng.integers(0, max(1, n // 4), n))
        features = [dense, keyed] if first == "dense" else [keyed, dense]

        def parts(time):
            return [time, *features] if first == "time" else [*features, time]
        return [dense, keyed[0]], parts

    def _run(self, q, parts, w_k, w_v, ids, num_dst, heads, leaves, seed_grad):
        for leaf in leaves:
            leaf.grad = None
        out = _fused(q, parts, w_k, w_v, ids, num_dst, heads)
        out.backward(seed_grad)
        return [out.data] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("first", ["dense", "keyed", "time"])
    def test_time_part_is_the_encoders_dense_part(self, monkeypatch, tile, sort, first):
        monkeypatch.setattr(segment_module, "ROW_TILE", tile)
        rng = np.random.default_rng(7)
        num_dst, heads, d_head = 50, 2, 3  # ids below 40: ten empty segments
        ids = rng.integers(0, 40, 120)
        ids = np.sort(ids) if sort else ids
        enc = TimeEncode(4)
        enc.weight.data[...] = rng.random(4).astype(np.float32)
        enc.bias.data[...] = rng.standard_normal(4).astype(np.float32)
        deltas = rng.random(len(ids)) * 50.0
        features, parts = self._leaves_and_parts(rng, len(ids), first)
        q = Tensor(rng.standard_normal((num_dst, heads * d_head)).astype(np.float32),
                   requires_grad=True)
        w_k, w_v = Linear(12, heads * d_head), Linear(12, heads * d_head)
        leaves = [q, w_k.weight, w_k.bias, w_v.weight, w_v.bias, enc.weight, enc.bias, *features]
        seed_grad = rng.standard_normal((num_dst, heads * d_head)).astype(np.float32)
        args = (w_k, w_v, ids, num_dst, heads, leaves, seed_grad)

        time = self._run(q, parts(enc.part(deltas)), *args)
        dense = self._run(q, parts(enc(Tensor(deltas.astype(np.float32)))), *args)
        for got, want in zip(time, dense):
            assert got is not None and (got == want).all()
        with no_grad():
            inferred = _fused(q, parts(enc.part(deltas)), w_k, w_v, ids, num_dst, heads)
        assert not inferred.requires_grad and (inferred.data == time[0]).all()
        np.testing.assert_allclose(
            time[0], _composed(q, parts(enc(Tensor(deltas.astype(np.float32)))), w_k, w_v,
                               ids, num_dst, heads).data, atol=1e-5, rtol=0)

    def test_backward_runs_once(self):
        rng = np.random.default_rng(8)
        ids = np.sort(rng.integers(0, 5, 30))
        enc = TimeEncode(4)
        q, parts, w_k, w_v = _problem(rng, 5, ids, 1, (3, 4), (False, False), (True, False))
        out = _fused(q, [parts[0], enc.part(rng.random(30))], w_k, w_v, ids, 5, 1)
        out.sum().backward()
        with pytest.raises(RuntimeError, match="runs once"):
            out.sum().backward()


class TestAttentionMemory:
    """What one call keeps for its backward, and what ``no_grad`` keeps at all."""

    ROWS, DST, HEADS, DIM, DIM_TIME = 20_000, 2_000, 2, 32, 32

    def _inputs(self):
        rng = np.random.default_rng(9)
        randn = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
        ids = np.sort(rng.integers(0, self.DST, self.ROWS))
        enc = TimeEncode(self.DIM_TIME)
        parts = [(Tensor(randn(500, 100), requires_grad=True), rng.integers(0, 500, self.ROWS)),
                 Tensor(randn(self.ROWS, 20), requires_grad=True),
                 enc.part(rng.random(self.ROWS) * 1e3)]
        q = Tensor(randn(self.DST, self.DIM), requires_grad=True)
        width = 120 + self.DIM_TIME
        w_k, w_v = Linear(width, self.DIM), Linear(width, self.DIM)
        with no_grad():  # first-call imports (scipy.sparse) are not the kernel's
            _fused(q, parts, w_k, w_v, ids, self.DST, self.HEADS)
        return q, parts, w_k, w_v, ids

    def test_a_call_keeps_kv_attention_and_phase(self):
        """K/V, the phase and O(rows) index bytes (the attention weights, ids,
        the keyed part's index, the deltas): nothing else as long as the rows."""
        q, parts, w_k, w_v, ids = self._inputs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = _fused(q, parts, w_k, w_v, ids, self.DST, self.HEADS)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        index_bytes = self.ROWS * (4 * self.HEADS + 3 * 8)
        assert kept <= self.ROWS * (2 * self.DIM + self.DIM_TIME) * 4 + index_bytes
        assert kept >= self.ROWS * (2 * self.DIM + self.DIM_TIME) * 4  # the bound is tight
        out.backward(np.ones(out.shape, np.float32))
        assert all(leaf.grad is not None for leaf in (q, w_k.weight, w_v.weight, parts[0][0]))

    def test_no_grad_keeps_nothing_per_row_beyond_a_tile(self, monkeypatch):
        monkeypatch.setattr(segment_module, "ROW_TILE", 256)
        q, parts, w_k, w_v, ids = self._inputs()
        with no_grad():
            tracemalloc.start()
            try:
                out = _fused(q, parts, w_k, w_v, ids, self.DST, self.HEADS)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert not out.requires_grad
        assert peak < self.ROWS * 2 * self.DIM * 4 // 4  # a quarter of one K/V array


def _drawn_problem(data, num_dst, num_src, heads, sort):
    """A hypothesis-drawn :func:`_problem`, its segment ids and its rng."""
    ids = np.asarray(data.draw(st.lists(st.integers(0, num_dst - 1), min_size=num_src,
                                        max_size=num_src)), dtype=np.int64)
    ids = np.sort(ids) if sort else ids
    num_parts = data.draw(st.integers(1, 3))
    flags = st.lists(st.booleans(), min_size=num_parts, max_size=num_parts)
    widths = data.draw(st.lists(st.integers(1, 4), min_size=num_parts, max_size=num_parts))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    problem = _problem(rng, num_dst, ids, heads, widths, data.draw(flags), data.draw(flags))
    return problem, ids, rng


@pytest.fixture(scope="module")
def wiki_graph():
    ds = get_dataset("wiki")
    g = tg.TGraph(ds.src, ds.dst, ds.ts, num_nodes=ds.num_nodes)
    g.set_nfeat(ds.nfeat)
    g.set_efeat(ds.efeat)
    return g


class TestLayersShareTheCore:
    def _block_and_mfg(self, g, ctx):
        blk = tg.TBatch(g, 100, 140).block(ctx)
        tg.TSampler(5).sample(blk)
        blk.dstdata["h"], blk.srcdata["h"] = blk.dstfeat(), blk.srcfeat()
        mfg = MFG(ctx.device, blk.dstnodes, blk.dsttimes, blk.srcnodes, blk.eids, blk.etimes,
                  blk.dstindex)
        mfg.load("h", g.nfeat, which="all")
        return blk, mfg

    def test_tglite_and_tgl_layers_give_equal_outputs(self, wiki_graph):
        g = tg.TGraph(wiki_graph.src, wiki_graph.dst, wiki_graph.ts)  # no edge features:
        g.set_nfeat(wiki_graph.nfeat)                                  # both pass the same parts
        ctx = tg.TContext(g)
        dims = dict(dim_node=172, dim_edge=0, dim_time=8, dim_out=8, dropout=0.0)
        ours, theirs = TemporalAttnLayer(ctx, 2, **dims), TGLAttnLayer(2, **dims)
        theirs.load_state_dict(ours.state_dict())
        blk, mfg = self._block_and_mfg(g, ctx)
        assert (ours(blk).data == theirs(mfg).data).all()

    def test_keyed_edge_features_only_move_rounding(self, wiki_graph):
        ctx = tg.TContext(wiki_graph)
        dims = dict(dim_node=172, dim_edge=172, dim_time=8, dim_out=8, dropout=0.0)
        ours, theirs = TemporalAttnLayer(ctx, 2, **dims), TGLAttnLayer(2, **dims)
        theirs.load_state_dict(ours.state_dict())
        blk, mfg = self._block_and_mfg(wiki_graph, ctx)
        mfg.load_edges("f", wiki_graph.efeat)
        np.testing.assert_allclose(ours(blk).data, theirs(mfg).data, atol=1e-5, rtol=0)


class TestNothingIsWiderThanItsInputs:
    def test_no_num_src_by_in_features_array_in_a_training_step(self, wiki_graph, monkeypatch):
        """TGAT's tail used to concatenate, project and differentiate a
        ``(num_src, dim_node + dim_edge + dim_time)`` array; now the whole
        step peaks below the size of one."""
        ctx = tg.TContext(wiki_graph)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8, num_layers=2,
                     num_nbrs=10, opt=OptFlags.preload_only())
        batch = tg.TBatch(wiki_graph, 1000, 1100)
        batch.neg_nodes = np.random.default_rng(0).integers(0, wiki_graph.num_nodes, len(batch))
        tail = model.sampler.sample(model.sampler.sample(batch.block(ctx)).next_block())
        in_features = 172 + 172 + 8
        concatenated = []
        concatenate = np.concatenate

        def recording(arrays, *args, **kwargs):
            out = concatenate(arrays, *args, **kwargs)
            concatenated.append(out.shape)
            return out

        monkeypatch.setattr(np, "concatenate", recording)
        tracemalloc.start()
        try:
            pos, neg = model(batch)
            (pos.sum() - neg.sum()).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not [shape for shape in concatenated
                    if len(shape) == 2 and shape[0] > 300 and shape[1] == in_features]
        assert peak < tail.num_src * in_features * 4


def test_edge_attention_is_the_block_form(wiki_graph):
    ctx = tg.TContext(wiki_graph)
    blk = tg.TBatch(wiki_graph, 100, 110).block(ctx)
    w_k, w_v = Linear(172 + 172, 4), Linear(172 + 172, 4)
    q = Tensor(np.ones((blk.num_dst, 4), dtype=np.float32))
    with pytest.raises(RuntimeError, match="sampled block"):
        tgop.edge_attention(blk, q, [], w_k, w_v, 2)
    tg.TSampler(3).sample(blk)
    parts = [blk.uniq_srcfeat(), blk.uniq_efeat()]
    out = tgop.edge_attention(blk, q, parts, w_k, w_v, 2)
    ref = composed_attention(q, [blk.srcfeat(), blk.efeat()], w_k, w_v, blk.dstindex,
                             blk.num_dst, 2)
    np.testing.assert_allclose(out.data, ref.data, atol=1e-5, rtol=0)
