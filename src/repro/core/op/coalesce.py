"""Coalesce operator: re-arrange/reduce source rows per destination node.

``coalesce(block, by='latest')`` collapses a block's source rows so that
each *unique destination node* keeps exactly one source row — the one with
the largest edge timestamp ('latest') or the smallest ('earliest').  This
expresses, in one line, the reduction memory-based models need to extract
"the most recent message per node in the batch" (the complex unique/perm
scatter sequence of TGL's Listing 3 region T).
"""

from __future__ import annotations

import numpy as np

from ...tensor.segment import segment_argmax_by_key
from ..block import TBlock
from ..kernels.dedup import unique_ids

__all__ = ["coalesce"]


def coalesce(block: TBlock, by: str = "latest") -> TBlock:
    """Reduce to one source row per unique destination node, in place.

    Args:
        block: a sampled/adjacency block (e.g. from ``TBatch.block_adj``).
        by: ``'latest'`` keeps the row with the largest edge timestamp per
            destination node (ties resolved toward the later batch
            position); ``'earliest'`` keeps the smallest.

    After the call ``block.dstnodes`` holds unique node ids (sorted), times
    are the selected rows' edge timestamps, and exactly one source row
    aligns with each destination.
    """
    if not block.has_nbrs:
        raise RuntimeError("coalesce requires a block with neighbor rows")
    if by not in ("latest", "earliest"):
        raise ValueError(f"unknown coalesce mode: {by!r}")

    uniq_nodes, node_index = unique_ids(block.dstnodes, block.g.num_nodes)
    keys = block.etimes if by == "latest" else -block.etimes
    # Map each source row to the unique-node segment of its destination row,
    # then pick the winning row per segment.
    seg = node_index[block.dstindex]
    winners = segment_argmax_by_key(keys, seg, len(uniq_nodes))
    present = winners >= 0  # unique nodes that had at least one source row
    kept = winners[present]  # winning row index, aligned with present nodes

    srcnodes = block.srcnodes[kept]
    eids = block.eids[kept]
    etimes = block.etimes[kept]

    block.srcnodes = None  # allow set_dst on an already-sampled block
    block.set_dst(uniq_nodes[present], etimes)
    block.set_nbrs(srcnodes, eids, etimes, np.arange(len(kept), dtype=np.int64))
    return block
