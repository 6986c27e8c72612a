"""Multi-block operators: pull-style aggregation and push-style propagation.

The doubly-linked block chain represents a multi-hop temporal subgraph.
:func:`aggregate` implements the pull pattern (classic message passing, as
in TGAT/TGN): computation starts at the tail (innermost hop, closest to raw
features) and each block's output is delivered to its predecessor's
``dstdata``/``srcdata`` until the head produces the final embeddings.
:func:`propagate` implements the push pattern used by APAN: a function is
applied from the given block toward the tail, pushing information outward.

``aggregate`` also runs each block's registered hooks on its output, which
is what lets optimization operators (dedup/cache) schedule their
post-processing without user intervention.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from ...tensor import Tensor
from ..block import TBlock

__all__ = ["aggregate", "propagate"]

BlockFn = Callable[[TBlock], Tensor]


def aggregate(
    head: TBlock,
    fn: Union[BlockFn, Sequence[BlockFn]],
    key: str = "h",
) -> Tensor:
    """Pull-style multi-hop aggregation over the block chain.

    Args:
        head: first block of the chain; traversal starts at the tail.
        fn: a callable applied to every block, or a sequence of callables
            ordered input-side first — ``fn[0]`` runs on the tail block
            (raw features) and ``fn[-1]`` on the head.
        key: the ``dstdata``/``srcdata`` entry used to deliver each block's
            output to its predecessor.

    Returns the head block's (post-hook) output tensor.

    For each block from tail to head: the layer function computes a
    destination-aligned output; the block's hooks post-process it (cache
    merge, dedup inversion, ...); the output is then split into the
    predecessor's ``dstdata[key]`` (first ``num_dst`` rows) and
    ``srcdata[key]`` (remaining rows), matching the layout produced by
    ``TBlock.next_block``.
    """
    functions = None if callable(fn) else list(fn)
    tail = head.tail()
    if functions is not None and tail.layer_id - head.layer_id + 1 != len(functions):
        raise ValueError(
            f"got {len(functions)} layer functions for a chain of "
            f"{tail.layer_id - head.layer_id + 1} blocks"
        )
    blk = tail
    output: Tensor = None
    while blk is not None:
        layer_fn = fn if functions is None else functions[tail.layer_id - blk.layer_id]
        output = layer_fn(blk)
        output = blk.run_hooks(output)
        if blk is head:
            break
        prev = blk.prev
        if prev is not None:
            if output.shape[0] != prev.num_dst + prev.num_src:
                raise RuntimeError(
                    "block output rows do not match predecessor's dst+src "
                    f"({output.shape[0]} vs {prev.num_dst}+{prev.num_src})"
                )
            prev.dstdata[key] = output[: prev.num_dst]
            prev.srcdata[key] = output[prev.num_dst :]
        blk = prev
    return output


def propagate(block: TBlock, fn: Callable[[TBlock], None]) -> None:
    """Push-style traversal: apply *fn* from *block* toward the tail.

    Unlike :func:`aggregate` there is no return value to thread between
    hops; *fn* performs its own effects (e.g. storing mail into the
    graph's mailbox).  Hooks registered on visited blocks are not run —
    push-style functions produce no block output to post-process.
    """
    blk = block
    while blk is not None:
        fn(blk)
        blk = blk.next
