"""Segmented (per-destination-group) tensor operators.

TGLite's block operators ``edge_reduce`` and ``edge_softmax`` are segmented
computations: each destination node owns a contiguous-or-not group of edge
rows, identified by a segment-id vector, and a reduction or normalization is
applied within each group.  These kernels are the autograd-aware numpy
equivalents of the fused CUDA segment kernels the paper relies on.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .tensor import Tensor

__all__ = [
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_count",
    "segment_softmax",
    "segment_argmax_by_key",
]


def _ids(segment_ids) -> np.ndarray:
    arr = segment_ids.data if isinstance(segment_ids, Tensor) else np.asarray(segment_ids)
    return arr.astype(np.int64, copy=False)


def _scatter_add(shape, key, values: np.ndarray) -> np.ndarray:
    """``out = zeros(shape); out[key] += values``, repeated targets summed.

    The one scatter-add behind every *gradient* (index / ``index_select`` /
    ``repeat_interleave`` backward, ``segment_softmax``'s backward dot).
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
