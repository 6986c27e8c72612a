"""Canonical cache/preload operators over the context's scratch space.

``repro.core.op`` re-exports :func:`memoize` as ``op.cache`` and
:func:`preload` as ``op.preload`` (the paper's Table-1 names), the two
data-movement operators: one eviction code path, one staging pool.

Blocks and contexts are duck-typed (``ctx.training`` /
``ctx.embed_cache`` / ``block.dstnodes`` ...) rather than imported:
``repro.core.context`` imports this package, so importing block/context
modules here would cycle.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, index_put

__all__ = ["memoize", "preload"]


def memoize(ctx, block):
    """Filter a block's destinations to embedding-cache misses, in place.

    The TGOpt ``cache()`` optimization: previously computed time-aware
    embeddings are reused while the weights are frozen, so this only
    engages in inference mode.  Resolution goes through the context's
    ring for the block's layer (``ctx.embed_cache``); a row it evicted is
    recomputed.

    Args:
        ctx: context owning the rings (``ctx.training`` gates engagement).
        block: target block (before sampling).

    Returns the block (mutated in place when there are cache hits).
    """
    if ctx.training:
        return block
    if ctx.is_degraded("kernel.cache"):
        # Repeated cache-kernel faults downgraded this context to the
        # uncached path: skip memoization entirely (results unchanged,
        # recomputation cost returns; visible as ``degraded:kernel.cache`` in ctx.stats()).
        return block
    if block.has_nbrs:
        raise RuntimeError("cache must be applied before sampling neighbors")
    layer = block.layer_id
    nodes, times = block.dstnodes, block.dsttimes
    hit_mask, hit_rows = ctx.embed_cache(layer).lookup(nodes, times)
    num_hits = int(hit_mask.sum())

    def put(keys, key_times, rows: np.ndarray) -> None:
        ctx.fit_embed_cache(layer, rows.shape[1]).store(keys, key_times, rows)

    if num_hits == 0:
        def store_hook(blk, output: Tensor) -> Tensor:
            put(nodes, times, output.data)
            return output

        block.register_hook(store_hook)
        return block

    # hit_rows is full-size (n, dim) with misses zero-filled, exactly the
    # merge target index_put overwrites at miss_idx.
    miss_idx = np.flatnonzero(~hit_mask)
    miss_nodes = nodes[miss_idx]
    miss_times = times[miss_idx]
    block.set_dst(miss_nodes, miss_times)

    def merge_hook(blk, output: Tensor) -> Tensor:
        put(miss_nodes, miss_times, output.data)
        full = Tensor(hit_rows.astype(output.data.dtype, copy=True),
                      device=output.device)
        return index_put(full, miss_idx, output)

    block.register_hook(merge_hook)
    return block


def preload(head):
    """Load feature/memory/mail data for every block in a chain.

    Walks the linked list from *head* to tail and stages each block's
    gathered host rows through the pinned pool before transfer, so the
    (simulated) DMA engine runs at pinned bandwidth.  Loaded tensors
    land in each block's cache, making the subsequent accessor calls free.
    Only what the models read is fetched, once per distinct row:
    ``uniq_efeat()`` on every hop, and on the tail either ``dstfeat()`` +
    ``uniq_srcfeat()`` or — when the graph carries memory — the
    per-unique-node ``uniq_nfeat()`` / ``mem_data()`` / ``mail()``.

    Args:
        head: the first block of the chain (traversal follows ``next``).

    Returns the head block.
    """
    blk = head
    g = head.g
    while blk is not None:
        # Edge features feed the attention computation of every hop.
        if g.efeat is not None and blk.has_nbrs:
            blk.uniq_efeat(pin=True)
        if blk.next is None:
            # Only the tail block consumes raw node features / memory /
            # mail (inner hops receive computed embeddings from
            # aggregate()), so loading them elsewhere would only waste
            # transfer bandwidth.
            if g.mem is not None:
                # Memory models key all three on the block's unique nodes.
                if g.nfeat is not None:
                    blk.uniq_nfeat(pin=True)
                blk.mem_data(pin=True)
            elif g.nfeat is not None:
                blk.dstfeat(pin=True)
                if blk.has_nbrs:
                    blk.uniq_srcfeat(pin=True)
            if g.mailbox is not None:
                blk.mail(pin=True)
        blk = blk.next
    return head
