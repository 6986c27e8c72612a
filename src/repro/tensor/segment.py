"""Segmented (per-destination-group) tensor operators.

TGLite's block operators ``edge_reduce`` and ``edge_softmax`` are segmented
computations: each destination node owns a contiguous-or-not group of edge
rows, identified by a segment-id vector, and a reduction or normalization is
applied within each group.  These kernels are the autograd-aware numpy
equivalents of the fused CUDA segment kernels the paper relies on.
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


def _scatter_add(shape, key, values: np.ndarray) -> np.ndarray:
    """``out = zeros(shape); out[key] += values``, repeated targets summed.

    The one scatter-add behind every *gradient* (the index backward,
    ``segment_softmax``'s backward dot).
    Non-negative 1-D integer ids with one value row each are summed per
    column by ``np.bincount`` when rows are narrow, or by ``np.add.reduceat``
    over runs when already non-decreasing (the sampler emits ``dstindex``
    sorted); the rest is ``np.add.at``.  The fast paths associate float32
    sums differently, which is why the forward kernels below avoid them.
    """
    out = np.zeros(shape, dtype=values.dtype)
    rows = (isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu" and len(key)
            and key.min() >= 0 and values.shape == key.shape + out.shape[1:])
    if rows and values[0].size <= 4:
        flat, cols = out.reshape(len(out), -1), values.reshape(len(key), -1)
        for c in range(cols.shape[1]):
            flat[:, c] = np.bincount(key, weights=cols[:, c], minlength=len(out))
    elif rows and (key[1:] >= key[:-1]).all():
        starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        out[key[starts]] = np.add.reduceat(values, starts, axis=0)
    else:
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


def _runs(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start offset and length of every run of equal values in non-decreasing *ids*."""
    starts = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))
    return starts, np.diff(np.append(starts, len(ids)))


def _sum_columns_by_key(values_t: np.ndarray, key: np.ndarray, num_keys: int) -> np.ndarray:
    """``out[:, j] = values_t[:, key == j].sum(axis=1)`` for unsorted *key*."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts, _ = _runs(key)
    out = np.zeros((len(values_t), num_keys), dtype=values_t.dtype)
    out[:, key[starts]] = np.add.reduceat(np.take(values_t, order, axis=1), starts, axis=1)
    return out


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
    matmul, partial products added, bias once).  A keyed part ``(rows,
    index)`` is projected once per row of ``rows`` and gathered, and its
    gradient is summed back per row before the weight-gradient matmul, so
    nothing is ever as wide as the input *and* as long as the segment ids.

    Args:
        q: ``(num_segments, dim_out)`` projected queries.
        parts: K/V inputs whose widths add up to ``w_k.shape[1]``, each with
            (or indexed to) one row per segment id; see :data:`Part`.
        w_k, b_k, w_v, b_v: ``(dim_out, in_features)`` weights and optional
            ``(dim_out,)`` biases of the key and value projections.
        segment_ids: ``(num_rows,)`` segment of each row.  Non-decreasing ids
            (the sampler's order) are reduced in place; anything else is
            stably sorted first and the gradient un-permuted.
        num_segments: number of queries; segments without rows yield zeros.
        num_heads: heads ``dim_out`` is split into.

    Returns the ``(num_segments, dim_out)`` aggregate.  The backward is one
    closure; it computes input gradients only for parts that require them.
    Everything runs feature-major — ``(dim, num_rows)`` — so every segment
    reduction is an ``np.add.reduceat`` along the contiguous axis.
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
    kv_t, col = None, 0
    for rows, index in keyed:
        proj_t = weight[:, col:col + rows.shape[1]] @ rows.data.T
        if index is not None:
            proj_t = np.take(proj_t, index, axis=1)
        kv_t = proj_t if kv_t is None else np.add(kv_t, proj_t, out=kv_t)
        col += rows.shape[1]
    zero = np.zeros(dim, dtype=kv_t.dtype)
    kv_t += np.concatenate([zero if b_k is None else b_k.data,
                            zero if b_v is None else b_v.data])[:, None]

    order = None
    if (ids[1:] < ids[:-1]).any():
        order = np.argsort(ids, kind="stable")
        ids, kv_t = ids[order], np.take(kv_t, order, axis=1)
    starts, counts = _runs(ids)
    segs = ids[starts]

    d_head = dim // num_heads
    scale = np.asarray(1.0 / np.sqrt(d_head), dtype=kv_t.dtype)

    def per_head(x_t: np.ndarray) -> np.ndarray:
        return x_t.reshape(num_heads, d_head, n)

    k_h, v_h = per_head(kv_t[:dim]), per_head(kv_t[dim:])
    q_h = per_head(np.repeat(q.data[segs].T, counts, axis=1))  # each row's query
    scores = (q_h * k_h).sum(axis=1) * scale  # (num_heads, n)
    scores -= np.repeat(np.maximum.reduceat(scores, starts, axis=1), counts, axis=1)
    attn = np.exp(scores, out=scores)
    denom = np.maximum(np.add.reduceat(attn, starts, axis=1), np.finfo(attn.dtype).tiny)
    attn /= np.repeat(denom, counts, axis=1)
    out_data = np.zeros((num_segments, dim), dtype=kv_t.dtype)
    out_data[segs] = np.add.reduceat((v_h * attn[:, None]).reshape(dim, n), starts, axis=1).T

    def backward(grad: np.ndarray) -> None:
        g_h = per_head(np.repeat(grad[segs].T, counts, axis=1))
        d_kv_t = np.empty_like(kv_t)
        np.multiply(g_h, attn[:, None], out=per_head(d_kv_t[dim:]))
        d_attn = (g_h * v_h).sum(axis=1)
        seg_dot = np.add.reduceat(d_attn * attn, starts, axis=1)
        d_scores = (attn * (d_attn - np.repeat(seg_dot, counts, axis=1)) * scale)[:, None]
        np.multiply(q_h, d_scores, out=per_head(d_kv_t[:dim]))
        if q.requires_grad:
            d_q = np.zeros_like(q.data)
            d_q[segs] = np.add.reduceat((k_h * d_scores).reshape(dim, n), starts, axis=1).T
            q._accumulate(d_q, own=True)
        if order is not None:
            d_sorted, d_kv_t = d_kv_t, np.empty_like(d_kv_t)
            d_kv_t[:, order] = d_sorted
        d_bias = d_kv_t.sum(axis=1)
        for bias, piece in ((b_k, d_bias[:dim]), (b_v, d_bias[dim:])):
            if bias is not None and bias.requires_grad:
                bias._accumulate(piece)
        d_weight, col = np.empty_like(weight), 0
        for rows, index in keyed:
            g_part = d_kv_t if index is None else _sum_columns_by_key(d_kv_t, index, len(rows))
            cols = slice(col, col + rows.shape[1])
            d_weight[:, cols] = g_part @ rows.data
            if rows.requires_grad:
                rows._accumulate(g_part.T @ weight[:, cols], own=True)
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
