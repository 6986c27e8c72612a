"""TGN on TGLite: temporal attention combined with GRU node memory.

Mirrors the paper's Listing 4.  Per batch:

1. build the block chain exactly like TGAT;
2. ``update_memory`` — consume each involved node's mailbox message (from
   *earlier* batches, avoiding information leakage) through a time-encoded
   GRU, once per *unique* node of the tail block (not per sampled row),
   persisting the new memory and returning it for embedding use;
3. seed the tail with ``linear(features) + memory``, still per unique node:
   the source side is handed to the attention layer keyed, never expanded
   to block rows, and aggregate;
4. ``save_raw_msgs`` — build this batch's raw messages from current memory
   and edge features, ``coalesce`` to the latest message per node, and
   store them in the mailbox for the next batch.
"""

from __future__ import annotations

from typing import Optional

from ..core import TBatch, TContext, TSampler
from ..core import op as tgop
from ..store import ops as store_ops
from ..nn import GRUCell, Linear, ModuleList
from ..tensor import Tensor
from .attention import TemporalAttnLayer
from .base import MemoryModel, OptFlags

__all__ = ["TGN"]


class TGN(MemoryModel):
    """Temporal Graph Network (Rossi et al.) built on TGLite.

    The graph must have ``Memory`` of width *dim_mem* and a single-slot
    ``Mailbox`` of width ``2 * dim_mem + dim_edge`` attached (see
    :meth:`required_mailbox_dim`).
    """

    #: every node the tail reads has its GRU output persisted at its mail time.
    fresh_only = False

    def __init__(
        self,
        ctx: TContext,
        dim_node: int,
        dim_edge: int,
        dim_time: int = 100,
        dim_embed: int = 100,
        dim_mem: int = 100,
        num_layers: int = 2,
        num_heads: int = 2,
        num_nbrs: int = 10,
        dropout: float = 0.1,
        sampling: str = "recent",
        opt: Optional[OptFlags] = None,
    ):
        super().__init__(ctx, dim_embed, dim_edge, dim_time, opt)
        self.num_layers = num_layers
        self.dim_mem = dim_mem
        self.sampler = TSampler(num_nbrs, sampling)
        mail_dim = self.required_mailbox_dim(dim_mem, dim_edge)
        self.mem_cell = GRUCell(mail_dim + dim_time, dim_mem)
        self.feat_linear = Linear(dim_node, dim_mem) if dim_node else None
        layers = []
        for i in range(num_layers):
            layers.append(
                TemporalAttnLayer(
                    ctx,
                    num_heads=num_heads,
                    dim_node=dim_mem if i == 0 else dim_embed,
                    dim_edge=dim_edge,
                    dim_time=dim_time,
                    dim_out=dim_embed,
                    dropout=dropout,
                    opt_time_precompute=self.opt.time_precompute,
                )
            )
        self.attn_layers = ModuleList(layers)

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        head = batch.block(self.ctx)
        tail = head
        for i in range(self.num_layers):
            if i > 0:
                tail = tail.next_block()
            if self.opt.dedup:
                tail = tgop.dedup(tail)
            # cache() is not applied for TGN: memory updates invalidate
            # cached embeddings every batch (Appendix A of the paper).
            tail = self.sampler.sample(tail)
        if self.opt.preload:
            store_ops.preload(head)

        inverse = tail.uniq_nodes()[1]
        h_uniq = self.with_node_feats(tail, self.update_memory(tail))
        tail.dstdata["h"] = h_uniq[inverse[: tail.num_dst]]
        tail.srcdata["h"] = (h_uniq, inverse[tail.num_dst :])
        embeds = tgop.aggregate(head, list(self.attn_layers), key="h")
        self.save_raw_msgs(batch)
        return embeds
