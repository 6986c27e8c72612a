"""Edge-wise computation operators: segmented reduce/softmax and scatter.

These let models express neighborhood computations "edge-wise" on a block
instead of via intricate batched-matmul/masked-softmax tensor manipulation
(the paper's Listing 1 region H vs Listing 2 region Q):

* :func:`edge_softmax` — softmax of per-source-row attention scores within
  each destination's neighbor group;
* :func:`edge_reduce` — segmented reduction of per-source-row values into
  per-destination rows;
* :func:`edge_attention` — the two above around a K/V projection, fused:
  each destination's multi-head attention over its neighbor group;
* :func:`src_scatter` — push-style reduction of per-source-row values onto
  the block's *unique source nodes* (used by APAN's mail propagation).
"""

from __future__ import annotations

from typing import Sequence

from ...tensor import Tensor
from ...tensor.segment import (
    Part,
    segment_attention,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from ..block import TBlock

__all__ = ["edge_softmax", "edge_reduce", "edge_attention", "src_scatter"]

_REDUCERS = {"sum": segment_sum, "mean": segment_mean, "max": segment_max}


def edge_softmax(block: TBlock, scores: Tensor) -> Tensor:
    """Normalize attention *scores* within each destination's neighbor group.

    Args:
        block: a sampled block.
        scores: source-row-aligned tensor ``(num_src,)`` or ``(num_src, H)``
            for multi-head attention.

    Returns a tensor of the same shape whose entries sum to one within each
    destination segment (independently per head).
    """
    if not block.has_nbrs:
        raise RuntimeError("edge_softmax requires a sampled block")
    if scores.shape[0] != block.num_src:
        raise ValueError(f"scores rows {scores.shape[0]} != num_src {block.num_src}")
    return segment_softmax(scores, block.dstindex, block.num_dst)


def edge_reduce(block: TBlock, values: Tensor, op: str = "sum") -> Tensor:
    """Segmented reduction of source-row *values* per destination.

    Args:
        block: a sampled block.
        values: source-row-aligned tensor ``(num_src, ...)``.
        op: ``'sum'``, ``'mean'``, or ``'max'``.

    Returns a destination-aligned tensor ``(num_dst, ...)``; destinations
    with no neighbors get zeros.
    """
    if not block.has_nbrs:
        raise RuntimeError("edge_reduce requires a sampled block")
    if values.shape[0] != block.num_src:
        raise ValueError(f"values rows {values.shape[0]} != num_src {block.num_src}")
    reducer = _REDUCERS.get(op)
    if reducer is None:
        raise ValueError(f"unknown reduce op: {op!r}")
    return reducer(values, block.dstindex, block.num_dst)


def edge_attention(block: TBlock, q: Tensor, parts: Sequence[Part], w_k, w_v,
                   num_heads: int) -> Tensor:
    """Each destination's multi-head attention over its neighbor group, fused.

    Args:
        block: a sampled block.
        q: destination-aligned projected queries ``(num_dst, dim_out)``.
        parts: what the keys and values are projected from, side by side:
            source-row-aligned tensors ``(num_src, width)``, keyed
            ``(rows, index)`` pairs standing for ``rows[index]`` — e.g.
            :meth:`TBlock.uniq_efeat` — which are projected once per row of
            ``rows`` instead of once per source row, and time parts
            ``(deltas, omega, phi)`` from :meth:`TimeEncode.part`, encoded
            inside the kernel one row tile at a time (marked as the
            ``time_nbrs`` span).
        w_k, w_v: the key / value ``Linear`` modules over the parts' combined
            width (a part meets its column slice of their weights).
        num_heads: attention heads.

    Returns the destination-aligned aggregate ``(num_dst, dim_out)``; see
    :func:`~repro.tensor.segment.segment_attention`.
    """
    if not block.has_nbrs:
        raise RuntimeError("edge_attention requires a sampled block")
    return segment_attention(q, parts, w_k.weight, w_k.bias, w_v.weight, w_v.bias,
                             block.dstindex, block.num_dst, num_heads, time_span="time_nbrs")


def src_scatter(block: TBlock, values: Tensor, op: str = "mean") -> Tensor:
    """Reduce source-row *values* onto the block's unique source nodes.

    The row order of the result matches ``block.uniq_src()[0]``.  This is
    the push-direction primitive: e.g. APAN computes a mail per edge row
    and scatter-means them onto each neighbor's mailbox entry.
    """
    if not block.has_nbrs:
        raise RuntimeError("src_scatter requires a sampled block")
    if values.shape[0] != block.num_src:
        raise ValueError(f"values rows {values.shape[0]} != num_src {block.num_src}")
    reducer = _REDUCERS.get(op)
    if reducer is None:
        raise ValueError(f"unknown reduce op: {op!r}")
    uniq, inverse = block.uniq_src()
    return reducer(values, inverse, len(uniq))
