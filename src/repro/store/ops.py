"""Canonical cache/preload operators over the feature store.

``repro.core.op`` re-exports :func:`memoize` as ``op.cache`` and
:func:`preload` as ``op.preload`` (the paper's Table-1 names), the two
data-movement operators: one eviction code path, one staging pool.

Blocks and contexts are duck-typed (``ctx.training`` / ``ctx.store`` /
``block.dstnodes`` ...) rather than imported: ``repro.core.context``
imports this package, so importing block/context modules here would
cycle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, index_put

__all__ = ["embed_space", "memoize", "preload"]


def embed_space(layer: int) -> str:
    """Store-space name of one layer's embedding memoization cache."""
    return f"embed:{int(layer)}"


def memoize(ctx, block, layer: Optional[int] = None):
    """Filter a block's destinations to embedding-cache misses, in place.

    The TGOpt ``cache()`` optimization: previously computed time-aware
    embeddings are reused while the weights are frozen, so this only
    engages in inference mode.  Resolution goes through the store's hot
    ring for space ``'embed:<layer>'``; a row it evicted is recomputed.

    Args:
        ctx: context owning the store (``ctx.training`` gates engagement).
        block: target block (before sampling).
        layer: cache namespace; defaults to the block's layer id.

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
    store = ctx.store
    space = embed_space(block.layer_id if layer is None else layer)
    nodes, times = block.dstnodes, block.dsttimes
    hit_mask, hit_rows = store.lookup(nodes, times, space=space)
    num_hits = int(hit_mask.sum())

    if num_hits == 0:
        def store_hook(blk, output: Tensor) -> Tensor:
            store.put(nodes, times, output.data, space=space)
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
        store.put(miss_nodes, miss_times, output.data, space=space)
        full = Tensor(hit_rows.astype(output.data.dtype, copy=True),
                      device=output.device)
        return index_put(full, miss_idx, output)

    block.register_hook(merge_hook)
    return block


def preload(head, use_pin: bool = True):
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
        use_pin: stage host rows through the pinned-memory pool.

    Returns the head block.
    """
    blk = head
    g = head.g
    while blk is not None:
        # Edge features feed the attention computation of every hop.
        if g.efeat is not None and blk.has_nbrs:
            blk.uniq_efeat(pin=use_pin)
        if blk.next is None:
            # Only the tail block consumes raw node features / memory /
            # mail (inner hops receive computed embeddings from
            # aggregate()), so loading them elsewhere would only waste
            # transfer bandwidth.
            if g.mem is not None:
                # Memory models key all three on the block's unique nodes.
                if g.nfeat is not None:
                    blk.uniq_nfeat(pin=use_pin)
                blk.mem_data(pin=use_pin)
            elif g.nfeat is not None:
                blk.dstfeat(pin=use_pin)
                if blk.has_nbrs:
                    blk.uniq_srcfeat(pin=use_pin)
            if g.mailbox is not None:
                blk.mail(pin=use_pin)
        blk = blk.next
    return head
