"""Deduplication optimization operator (semantic-preserving).

CTDG batches frequently request embeddings for the same (node, time) pair
multiple times — e.g. a hub node sampled as a neighbor of many targets at
the same interaction timestamp.  ``dedup()`` shrinks a block's destination
set to unique pairs *before* sampling (so the entire downstream subgraph
shrinks too) and registers a hook that re-expands the computed output with
the inverse index, preserving output semantics exactly.
"""

from __future__ import annotations

import numpy as np

from ...spans import span
from ...tensor import Tensor
from ..block import TBlock
from ..kernels.dedup import unique_node_times

__all__ = ["dedup", "unique_node_times"]


def dedup(block: TBlock) -> TBlock:
    """Filter a block's destinations to unique (node, time) pairs, in place.

    Must be applied before sampling.  If every pair is already unique the
    block is untouched and no hook is registered.  Otherwise the
    destination set is replaced by the unique pairs and a post-processing
    hook re-expands computed outputs back to the original row order.
    """
    if block.has_nbrs:
        raise RuntimeError("dedup must be applied before sampling neighbors")
    nodes, times = block.dstnodes, block.dsttimes
    with span("kernel:dedup"):
        uniq_nodes, uniq_times, inverse = unique_node_times(nodes, times)
    block.ctx.count("dedup_rows_in", len(nodes))
    block.ctx.count("dedup_rows_out", len(uniq_nodes))
    if len(uniq_nodes) == len(nodes):
        return block
    block.set_dst(uniq_nodes, uniq_times)

    def invert_hook(blk: TBlock, output: Tensor) -> Tensor:
        return output[inverse]

    block.register_hook(invert_hook)
    return block
