"""Segmented (per-destination-group) tensor operators.

TGLite's block operators ``edge_reduce`` and ``edge_softmax`` are segmented
computations: each destination node owns a contiguous-or-not group of edge
rows, identified by a segment-id vector, and a reduction or normalization is
applied within each group.  These kernels are the autograd-aware numpy
equivalents of the fused CUDA segment kernels the paper relies on.  Sums
by key — gradient scatter-adds, the attention's per-segment sums — are
sparse × dense products (``scipy.sparse``), which add rows in order: the
bits of a sequential ``np.add.at`` at a fraction of its cost.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..spans import span
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_count",
    "segment_softmax",
    "segment_attention",
    "segment_argmax_by_key",
    "time_phase",
]

#: one K/V input of :func:`segment_attention`: a ``(num_rows, width)`` tensor;
#: ``(rows, index)`` standing for ``rows[index]`` without expanding it; or a
#: time part ``(deltas, omega, phi)`` standing for ``cos(deltas ⊗ omega + phi)``
#: (``TimeEncode.part``), encoded inside the kernel.
Part = Union[Tensor, Tuple[Tensor, np.ndarray], Tuple[np.ndarray, Tensor, Tensor]]

#: rows of :func:`segment_attention`'s row-local work per tile.
ROW_TILE = 8192


def _ids(segment_ids) -> np.ndarray:
    arr = segment_ids.data if isinstance(segment_ids, Tensor) else np.asarray(segment_ids)
    return arr.astype(np.int64, copy=False)


def _onehot_t(key: np.ndarray, num_keys: int, dtype):
    """``onehot(key)ᵀ``, so that ``_onehot_t(key, m, dt) @ x`` sums *x*'s rows per key.

    ``onehot(key)`` is the CSR matrix with one 1 per row (``indptr`` is
    ``arange``); its transpose reads the same arrays as CSC, so nothing is
    sorted, and scipy adds the rows of *x* in order: bit for bit a
    sequential ``np.add.at``.  Imported on first use: at module level
    ``scipy.sparse`` would cost every fresh process ~0.15 s.
    """
    from scipy import sparse

    n = len(key)
    if n and not 0 <= key.min() <= key.max() < num_keys:
        raise IndexError(f"key out of range for {num_keys} rows")
    return sparse.csc_array((np.ones(n, dtype), key, np.arange(n + 1)), shape=(num_keys, n))


def _scatter_add(shape, key, values: np.ndarray) -> np.ndarray:
    """``out = zeros(shape); out[key] += values``, repeated targets summed in order.

    The one scatter-add behind every *gradient* (the index backward,
    ``segment_softmax``'s backward dot).  A 1-D integer key (negative ids
    count from the end) is :func:`_onehot_t`'s product, bit for bit a
    sequential ``np.add.at``; tuple and mask keys take ``np.add.at`` itself.
    """
    if isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu":
        key = np.where(key < 0, key + shape[0], key)
        flat = values.reshape(len(key), int(np.prod(shape[1:])))
        return (_onehot_t(key, shape[0], values.dtype) @ flat).reshape(shape)
    out = np.zeros(shape, dtype=values.dtype)
    np.add.at(out, key, values)
    return out


def segment_count(segment_ids, num_segments: int) -> np.ndarray:
    """Number of rows per segment, as an int64 array of length *num_segments*."""
    ids = _ids(segment_ids)
    return np.bincount(ids, minlength=num_segments).astype(np.int64)


def segment_sum(data: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of *data* within each segment. Differentiable."""
    ids = _ids(segment_ids)
    out_data = np.zeros((num_segments,) + data.data.shape[1:], dtype=data.data.dtype)
    # Forward keeps np.add.at: inference outputs must stay bit-identical.
    np.add.at(out_data, ids, data.data)

    def backward(grad: np.ndarray) -> None:
        data._accumulate(grad[ids], own=True)

    return Tensor._make(out_data, (data,), backward, data.device)


def segment_mean(data: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Average rows of *data* within each segment (empty segments give 0)."""
    ids = _ids(segment_ids)
    counts = segment_count(ids, num_segments).astype(data.data.dtype)
    counts = np.maximum(counts, 1)
    total = segment_sum(data, ids, num_segments)
    inv = (1.0 / counts).reshape((num_segments,) + (1,) * (data.data.ndim - 1))
    return total * Tensor(inv.astype(data.data.dtype), device=data.device)


def segment_max(data: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Row-wise max within each segment (empty segments give 0)."""
    ids = _ids(segment_ids)
    neg_inf = np.finfo(data.data.dtype).min
    out_data = np.full((num_segments,) + data.data.shape[1:], neg_inf, dtype=data.data.dtype)
    np.maximum.at(out_data, ids, data.data)
    empty = segment_count(ids, num_segments) == 0
    out_data[empty] = 0.0
    # Gradient routes to the first row achieving the max within each segment.
    winners = data.data == out_data[ids]

    def backward(grad: np.ndarray) -> None:
        expanded = grad[ids] * winners
        # Normalize ties so gradient mass per segment is preserved.
        tie_counts = np.zeros_like(out_data)
        np.add.at(tie_counts, ids, winners.astype(out_data.dtype))
        tie_counts = np.maximum(tie_counts, 1.0)
        data._accumulate(expanded / tie_counts[ids])

    return Tensor._make(out_data, (data,), backward, data.device)


def segment_softmax(scores: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over rows of *scores* within each segment. Differentiable.

    *scores* may be 1-D ``(E,)`` or 2-D ``(E, H)`` for multi-head attention;
    normalization is independent per trailing column.
    """
    ids = _ids(segment_ids)
    data = scores.data
    neg_inf = np.finfo(data.dtype).min
    maxes = np.full((num_segments,) + data.shape[1:], neg_inf, dtype=data.dtype)
    np.maximum.at(maxes, ids, data)
    shifted = data - maxes[ids]
    exp = np.exp(shifted)
    denom = np.zeros_like(maxes)
    # Forward keeps np.add.at: inference outputs must stay bit-identical.
    np.add.at(denom, ids, exp)
    denom = np.maximum(denom, np.finfo(data.dtype).tiny)
    out_data = exp / denom[ids]

    def backward(grad: np.ndarray) -> None:
        # d softmax: s * (g - sum_seg(g * s))
        seg_dot = _scatter_add(maxes.shape, ids, grad * out_data)
        scores._accumulate(out_data * (grad - seg_dot[ids]), own=True)

    return Tensor._make(out_data, (scores,), backward, scores.device)


class _Rows:
    """A dense or keyed K/V part: ``rows`` itself, or ``rows[index]`` unexpanded.

    A keyed part is projected once per row of ``rows`` before the tiles and
    gathered per tile; a dense one is projected per tile.
    """

    def __init__(self, rows: Tensor, index: Optional[np.ndarray] = None):
        self.rows, self.index = rows, index
        self.width, self.length = rows.shape[1], len(rows if index is None else index)
        self.params = (rows,)

    def start(self, w: np.ndarray, order: Optional[np.ndarray], keep: bool) -> None:
        self.order = order
        if self.index is not None:
            num_rows = len(self.rows)
            if len(self.index) and not -num_rows <= self.index.min() <= self.index.max() < num_rows:
                raise IndexError(f"index out of range for {num_rows} rows")
            self.proj = self.rows.data @ w.T
            self.take = self.index if order is None else self.index[order]

    def tile(self, lo: int, hi: int, w: np.ndarray, out=None) -> np.ndarray:
        if self.index is not None:
            # In range (checked above), so "wrap" is "raise" without its copy of *out*.
            return np.take(self.proj, self.take[lo:hi], axis=0, out=out, mode="wrap")
        return np.matmul(_tile_rows(self.rows.data, self.order, lo, hi), w.T, out=out)

    def stop(self) -> None:
        self.proj = self.take = self.order = None

    def backward(self, d_kv: np.ndarray, w: np.ndarray) -> np.ndarray:
        g = d_kv if self.index is None else _onehot_t(self.index, len(self.rows), d_kv.dtype) @ d_kv
        if self.rows.requires_grad:
            self.rows._accumulate(g @ w, own=True)
        return g.T @ self.rows.data


class _Time:
    """A time part: ``cos(deltas ⊗ omega + phi)``, encoded one tile at a time.

    Keeps only the phase for its backward.  That recomputes ``cos`` once for
    the full-row weight gradient and takes ``sin`` in place in the phase
    buffer for ``d_omega`` / ``d_phi``: ``TimeEncode``'s arithmetic, so a
    time part has the bits of the encoder's output passed as a dense part.
    """

    def __init__(self, deltas, omega: Tensor, phi: Tensor, span_name: Optional[str]):
        self.deltas = np.asarray(deltas, dtype=omega.dtype).reshape(-1)
        self.omega, self.phi, self.span_name = omega, phi, span_name
        self.width, self.length = len(omega.data), len(self.deltas)
        self.params = (omega, phi)

    def _span(self):
        return nullcontext() if self.span_name is None else span(self.span_name)

    def start(self, w: np.ndarray, order: Optional[np.ndarray], keep: bool) -> None:
        self.order = order
        self.phase = np.empty((self.length, self.width), self.deltas.dtype) if keep else None

    def tile(self, lo: int, hi: int, w: np.ndarray, out=None) -> np.ndarray:
        with self._span():
            deltas = _tile_rows(self.deltas, self.order, lo, hi)
            if self.phase is not None and self.order is None:
                enc = np.cos(time_phase(deltas, self.omega.data, self.phi.data,
                                        out=self.phase[lo:hi]))
            else:
                enc = time_phase(deltas, self.omega.data, self.phi.data)
                if self.phase is not None:  # kept in the caller's row order, as d_kv is
                    self.phase[self.order[lo:hi]] = enc
                np.cos(enc, out=enc)
        return np.matmul(enc, w.T, out=out)

    def stop(self) -> None:
        self.order = None

    def backward(self, d_kv: np.ndarray, w: np.ndarray) -> np.ndarray:
        enc = np.cos(self.phase)
        d_w = d_kv.T @ enc
        if self.omega.requires_grad or self.phi.requires_grad:
            g = np.matmul(d_kv, w, out=enc)
            s = np.sin(self.phase, out=self.phase)
            s *= g
            if self.omega.requires_grad:
                self.omega._accumulate(-(self.deltas @ s), own=True)
            if self.phi.requires_grad:
                self.phi._accumulate(-(np.ones(len(s), s.dtype) @ s), own=True)
        self.phase = None
        return d_w


def _as_part(part: Part, span_name: Optional[str]):
    if isinstance(part, Tensor):
        return _Rows(part)
    if len(part) == 2:
        return _Rows(part[0], _ids(part[1]))
    return _Time(*part, span_name)


def _tile_rows(x: np.ndarray, order: Optional[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of *x* in segment order (*order* sorts the ids, ``None`` if they were)."""
    return x[lo:hi] if order is None else x.take(order[lo:hi], axis=0)


def _row_tiles(starts: np.ndarray, n: int):
    """``(lo, hi, first run, end run)`` for tiles of about :data:`ROW_TILE` rows.

    A tile is cut only where a run of ids starts, so each segment lies in one
    tile and its sums are the additions a whole-row pass makes.  A last tile
    under half a tile joins the one before: a product of only a few rows can
    take another BLAS kernel, with other rounding.
    """
    if n <= ROW_TILE:
        return [(0, n, 0, len(starts))]
    cuts = np.searchsorted(starts, np.arange(ROW_TILE, n, ROW_TILE))
    cuts = np.unique(cuts[cuts < len(starts)])
    if len(cuts) and n - starts[cuts[-1]] < ROW_TILE // 2:
        cuts = cuts[:-1]
    runs = np.concatenate([[0], cuts, [len(starts)]])
    rows = np.append(starts, n)[runs]
    return list(zip(rows[:-1].tolist(), rows[1:].tolist(), runs[:-1].tolist(), runs[1:].tolist()))


def _segment_rows(ids: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """``out[s] = Σ x[ids == s]`` for the (sorted, contiguous) segments *ids* covers."""
    first = ids[0]
    out[first:ids[-1] + 1] = _onehot_t(ids - first, ids[-1] + 1 - first, x.dtype) @ x


def time_phase(deltas: np.ndarray, omega: np.ndarray, phi: np.ndarray, out=None) -> np.ndarray:
    """``deltas ⊗ omega + phi``, ``(len(deltas), len(omega))``: the cosine time
    encoding's argument, shared by ``TimeEncode`` and a time part."""
    phase = np.multiply.outer(deltas, omega, out=out)
    phase += phi
    return phase


def segment_attention(
    q: Tensor,
    parts: Sequence[Part],
    w_k: Tensor,
    b_k: Optional[Tensor],
    w_v: Tensor,
    b_v: Optional[Tensor],
    segment_ids,
    num_segments: int,
    num_heads: int,
    time_span: Optional[str] = None,
) -> Tensor:
    """Multi-head attention of each segment's query over its rows, as one autograd node.

    Computes what ``cat(parts) -> Linear(w_k) / Linear(w_v) -> per-head
    dot(q[segment_ids], K) / sqrt(d_head) -> segment_softmax -> segment_sum
    of the weighted V`` computes, without the concat: every part is
    projected by its own column slice of ``[w_k; w_v]`` (K and V from one
    matmul), the bias is added with the first part and the partial products
    in part order.  A keyed part ``(rows, index)`` is projected once per row
    of ``rows`` and gathered (the bits of its dense expansion
    ``rows[index]``); its gradient is ``onehot(index)ᵀ @ d_kv``, summed per
    row before the weight-gradient matmul.  A time part ``(deltas, omega,
    phi)`` is encoded inside, ``cos(deltas ⊗ omega + phi)``, one row tile at
    a time, with the bits of ``TimeEncode``'s output passed as a dense part.

    Row-local work runs in tiles of about :data:`ROW_TILE` rows cut where a
    segment starts: K/V accumulation, the query gather, scores, softmax,
    weighting and segment sum; in the backward the gradient and query
    gathers, ``d_v`` / ``d_k`` / ``d_q``.  Sums over all rows (weight
    gradients, keyed-part sums, ``b_v``, ``d_omega``, ``d_phi``) stay whole,
    so no bit depends on the tile.  The backward keeps K/V, the ``(heads,
    num_rows)`` attention and each time part's phase; under ``no_grad``
    nothing per row outlives its tile.

    Args:
        q: ``(num_segments, dim_out)`` projected queries.
        parts: K/V inputs whose widths add up to ``w_k.shape[1]``, each with
            (or indexed to) one row per segment id; see :data:`Part`.
        w_k, b_k, w_v, b_v: ``(dim_out, in_features)`` weights and optional
            ``(dim_out,)`` biases of the key and value projections.
        segment_ids: ``(num_rows,)`` segment of each row.  Non-decreasing ids
            (the sampler's order) are used as they are; anything else is
            stably sorted first and the gradient un-permuted.
        num_segments: number of queries; segments without rows yield zeros.
        num_heads: heads ``dim_out`` is split into.
        time_span: a :mod:`repro.spans` name marking the time parts'
            encoding (``None``: unmarked, inside the caller's spans).

    Returns the ``(num_segments, dim_out)`` aggregate.  The backward is one
    closure; it computes input gradients only for parts that require them,
    and runs once: it writes the row gradients over K/V and ``sin`` over the
    phase.  ``b_k``'s gradient is exactly 0: softmax is shift-invariant per
    segment; ``b_v``'s is ``ones @ d_v``.
    """
    ids = _ids(segment_ids)
    n, dim = len(ids), q.shape[1]
    parts = [_as_part(p, time_span) for p in parts]
    if sum(p.width for p in parts) != w_k.shape[1]:
        raise ValueError("part widths do not add up to the projection's in_features")
    if any(p.length != n for p in parts):
        raise ValueError("every part needs one row per segment id")
    if n == 0:
        return Tensor(np.zeros((num_segments, dim), dtype=q.dtype), device=q.device)

    weight = np.concatenate([w_k.data, w_v.data])  # (2 dim, in_features)
    zero = np.zeros(dim, dtype=weight.dtype)
    bias = np.concatenate([zero if b_k is None else b_k.data, zero if b_v is None else b_v.data])
    cols = np.cumsum([0] + [p.width for p in parts]).tolist()
    slices = [weight[:, lo:hi] for lo, hi in zip(cols[:-1], cols[1:])]
    parents = [q, w_k, w_v] + [t for p in parts for t in p.params]
    parents += [b for b in (b_k, b_v) if b is not None]
    keep = is_grad_enabled() and any(t.requires_grad for t in parents)

    order = None
    if (ids[1:] < ids[:-1]).any():
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
    starts = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))  # where each run of ids starts
    counts = np.diff(np.append(starts, n))
    tiles = _row_tiles(starts, n)

    d_head = dim // num_heads
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=weight.dtype)

    def per_head(x: np.ndarray) -> np.ndarray:
        return x.reshape(len(x), num_heads, d_head)

    kv = np.empty((n, 2 * dim), dtype=weight.dtype) if keep else None
    attn = np.empty((num_heads, n), dtype=weight.dtype) if keep else None
    out_data = np.zeros((num_segments, dim), dtype=weight.dtype)
    for p, w in zip(parts, slices):
        p.start(w, order, keep)
    for lo, hi, r0, r1 in tiles:
        kv_t = kv[lo:hi] if keep else np.empty((hi - lo, 2 * dim), dtype=weight.dtype)
        parts[0].tile(lo, hi, slices[0], out=kv_t)
        kv_t += bias
        for p, w in zip(parts[1:], slices[1:]):
            kv_t += p.tile(lo, hi, w)
        rows, run_starts, run_counts = ids[lo:hi], starts[r0:r1] - lo, counts[r0:r1]
        scores = np.einsum("nhd,nhd->hn", per_head(q.data.take(rows, axis=0)),
                           per_head(kv_t[:, :dim])) * scale
        scores -= np.repeat(np.maximum.reduceat(scores, run_starts, axis=1), run_counts, axis=1)
        a = np.exp(scores, out=scores)
        denom = np.maximum(np.add.reduceat(a, run_starts, axis=1), np.finfo(a.dtype).tiny)
        a /= np.repeat(denom, run_counts, axis=1)
        if keep:
            attn[:, lo:hi] = a
        _segment_rows(rows, np.einsum("nhd,hn->nhd", per_head(kv_t[:, dim:]), a).reshape(-1, dim),
                      out_data)
    for p in parts:
        p.stop()
    if not keep:
        return Tensor(out_data, device=q.device)

    def backward(grad: np.ndarray) -> None:
        nonlocal kv
        if kv is None:
            raise RuntimeError("segment_attention's backward runs once: it spends K/V's buffer")
        # Sorted rows: each tile's d_kv overwrites its K/V once they are read.
        d_kv = kv if order is None else np.empty_like(kv)
        d_q = np.zeros_like(q.data) if q.requires_grad else None
        for lo, hi, r0, r1 in tiles:
            rows, run_starts, run_counts = ids[lo:hi], starts[r0:r1] - lo, counts[r0:r1]
            g, a = per_head(grad.take(rows, axis=0)), attn[:, lo:hi]
            d_attn = np.einsum("nhd,nhd->hn", g, per_head(kv[lo:hi, dim:]))
            seg_dot = np.add.reduceat(d_attn * a, run_starts, axis=1)
            d_scores = a * (d_attn - np.repeat(seg_dot, run_counts, axis=1)) * scale
            if d_q is not None:
                _segment_rows(rows, np.einsum("nhd,hn->nhd", per_head(kv[lo:hi, :dim]),
                                              d_scores).reshape(-1, dim), d_q)
            d_t = d_kv[lo:hi] if order is None else np.empty((hi - lo, 2 * dim), d_kv.dtype)
            np.einsum("nhd,hn->nhd", g, a, out=per_head(d_t[:, dim:]))
            np.einsum("nhd,hn->nhd", per_head(q.data.take(rows, axis=0)), d_scores,
                      out=per_head(d_t[:, :dim]))
            if order is not None:
                d_kv[order[lo:hi]] = d_t
        kv = None
        if d_q is not None:
            q._accumulate(d_q, own=True)
        if b_k is not None and b_k.requires_grad:
            b_k._accumulate(np.zeros_like(b_k.data), own=True)
        if b_v is not None and b_v.requires_grad:
            b_v._accumulate(np.ones(n, d_kv.dtype) @ d_kv[:, dim:], own=True)
        d_weight = np.empty_like(weight)
        for p, w, lo, hi in zip(parts, slices, cols[:-1], cols[1:]):
            d_weight[:, lo:hi] = p.backward(d_kv, w)
        if w_k.requires_grad:
            w_k._accumulate(d_weight[:dim], own=True)
        if w_v.requires_grad:
            w_v._accumulate(d_weight[dim:], own=True)

    return Tensor._make(out_data, parents, backward, q.device)


def segment_argmax_by_key(
    keys: np.ndarray, segment_ids: Union[np.ndarray, Tensor], num_segments: int
) -> np.ndarray:
    """For each segment, the row index of the largest *key* (ties -> last row).

    Non-differentiable bookkeeping helper used by ``coalesce(by='latest')``
    to select, e.g., the most recent edge per destination node.  Segments
    with no rows map to -1.
    """
    ids = _ids(segment_ids)
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    result = np.full(num_segments, -1, dtype=np.int64)
    # Later assignment wins, so after iterating in ascending key order each
    # segment holds the row with its maximum key (last occurrence on ties).
    result[ids[order]] = order
    return result
