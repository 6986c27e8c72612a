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

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor

__all__ = [
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_count",
    "segment_softmax",
    "segment_attention",
    "segment_argmax_by_key",
]

#: one K/V input of :func:`segment_attention`: a ``(num_rows, width)`` tensor,
#: or ``(rows, index)`` standing for ``rows[index]`` without expanding it.
Part = Union[Tensor, Tuple[Tensor, np.ndarray]]


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
) -> Tensor:
    """Multi-head attention of each segment's query over its rows, as one autograd node.

    Computes what ``cat(parts) -> Linear(w_k) / Linear(w_v) -> per-head
    dot(q[segment_ids], K) / sqrt(d_head) -> segment_softmax -> segment_sum
    of the weighted V`` computes, without the concat: every part is
    projected by its own column slice of ``[w_k; w_v]`` (K and V from one
    matmul), the bias is added with the first part and the partial products
    in part order.  A keyed part ``(rows, index)`` is projected once per row
    of ``rows`` (a keyed first part biased there too) and gathered (the bits
    of its dense expansion ``rows[index]``); its gradient
    is ``onehot(index)ᵀ @ d_kv``, summed per row before the weight-gradient
    matmul.  Nothing is as wide as the input *and* as long as the ids.

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

    Returns the ``(num_segments, dim_out)`` aggregate.  The backward is one
    closure; it computes input gradients only for parts that require them.
    K/V is edge-major, ``(num_rows, 2 dim_out)``: per-segment sums (the
    weighted V, ``d q``) are ``onehot(ids)ᵀ @ x``; the softmax's max and sum
    are ``np.add.reduceat`` runs over the small ``(heads, num_rows)`` scores.
    ``b_k``'s gradient is exactly 0: softmax is shift-invariant per segment;
    ``b_v``'s is ``ones @ d_v``.
    """
    ids = _ids(segment_ids)
    n, dim = len(ids), q.shape[1]
    keyed = [p if isinstance(p, tuple) else (p, None) for p in parts]
    keyed = [(rows, None if index is None else _ids(index)) for rows, index in keyed]
    if sum(rows.shape[1] for rows, _ in keyed) != w_k.shape[1]:
        raise ValueError("part widths do not add up to the projection's in_features")
    if any(len(rows if index is None else index) != n for rows, index in keyed):
        raise ValueError("every part needs one row per segment id")
    if n == 0:
        return Tensor(np.zeros((num_segments, dim), dtype=q.dtype), device=q.device)

    weight = np.concatenate([w_k.data, w_v.data])  # (2 dim, in_features)
    zero = np.zeros(dim, dtype=weight.dtype)
    bias = np.concatenate([zero if b_k is None else b_k.data, zero if b_v is None else b_v.data])
    kv, col = None, 0
    for rows, index in keyed:
        proj = rows.data @ weight[:, col:col + rows.shape[1]].T
        if kv is None:
            proj += bias
        if index is not None:
            proj = proj.take(index, axis=0)
        kv = proj if kv is None else np.add(kv, proj, out=kv)
        col += rows.shape[1]

    order = None
    if (ids[1:] < ids[:-1]).any():
        order = np.argsort(ids, kind="stable")
        ids, kv = ids[order], kv.take(order, axis=0)
    starts = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))  # where each run of ids starts
    counts = np.diff(np.append(starts, n))
    seg = _onehot_t(ids, num_segments, kv.dtype)

    d_head = dim // num_heads
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=kv.dtype)

    def per_head(x: np.ndarray) -> np.ndarray:
        return x.reshape(n, num_heads, d_head)

    k, v = per_head(kv[:, :dim]), per_head(kv[:, dim:])
    scores = np.einsum("nhd,nhd->hn", per_head(q.data.take(ids, axis=0)), k) * scale
    scores -= np.repeat(np.maximum.reduceat(scores, starts, axis=1), counts, axis=1)
    attn = np.exp(scores, out=scores)
    denom = np.maximum(np.add.reduceat(attn, starts, axis=1), np.finfo(attn.dtype).tiny)
    attn /= np.repeat(denom, counts, axis=1)
    out_data = seg @ np.einsum("nhd,hn->nhd", v, attn).reshape(n, dim)

    def backward(grad: np.ndarray) -> None:
        g = per_head(grad.take(ids, axis=0))
        d_kv = np.empty_like(kv)
        np.einsum("nhd,hn->nhd", g, attn, out=per_head(d_kv[:, dim:]))
        d_attn = np.einsum("nhd,nhd->hn", g, v)
        seg_dot = np.add.reduceat(d_attn * attn, starts, axis=1)
        d_scores = attn * (d_attn - np.repeat(seg_dot, counts, axis=1)) * scale
        np.einsum("nhd,hn->nhd", per_head(q.data.take(ids, axis=0)), d_scores,
                  out=per_head(d_kv[:, :dim]))
        if q.requires_grad:
            q._accumulate(seg @ np.einsum("nhd,hn->nhd", k, d_scores).reshape(n, dim), own=True)
        if order is not None:
            d_sorted, d_kv = d_kv, np.empty_like(d_kv)
            d_kv[order] = d_sorted
        if b_k is not None and b_k.requires_grad:
            b_k._accumulate(np.zeros_like(b_k.data), own=True)
        if b_v is not None and b_v.requires_grad:
            b_v._accumulate(np.ones(n, d_kv.dtype) @ d_kv[:, dim:], own=True)
        d_weight, col = np.empty_like(weight), 0
        for rows, index in keyed:
            g_part = d_kv if index is None else _onehot_t(index, len(rows), d_kv.dtype) @ d_kv
            cols = slice(col, col + rows.shape[1])
            d_weight[:, cols] = g_part.T @ rows.data
            if rows.requires_grad:
                rows._accumulate(g_part @ weight[:, cols], own=True)
            col = cols.stop
        if w_k.requires_grad:
            w_k._accumulate(d_weight[:dim], own=True)
        if w_v.requires_grad:
            w_v._accumulate(d_weight[dim:], own=True)

    parents = [q, w_k, w_v] + [rows for rows, _ in keyed] + [b for b in (b_k, b_v) if b is not None]
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
