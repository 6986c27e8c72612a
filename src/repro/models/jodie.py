"""JODIE on TGLite: RNN memory updates with time-projected embeddings.

Mirrors the paper's Listing 5.  JODIE performs no neighborhood sampling or
aggregation: each node's embedding is a time-aware projection of its
memory, which an RNN cell updates from mailbox messages.  Because of this
simplicity no further optimization operators apply (the paper skips the
``TGLite+opt`` setting for JODIE).
"""

from __future__ import annotations

from typing import Optional

from ..core import TBatch, TBlock, TContext
from ..store import ops as store_ops
from ..nn import Linear, RNNCell
from ..tensor import Tensor, cat
from .base import MemoryModel, OptFlags

__all__ = ["JODIE"]


class JODIE(MemoryModel):
    """JODIE (Kumar et al.) built on TGLite.

    The graph needs ``Memory`` of width *dim_mem* and a single-slot
    ``Mailbox`` of width ``dim_mem + dim_edge``.
    """

    #: a message is [peer memory, edge features].
    mail_own = False

    def __init__(
        self,
        ctx: TContext,
        dim_node: int,
        dim_edge: int,
        dim_time: int = 100,
        dim_embed: int = 100,
        dim_mem: int = 100,
        opt: Optional[OptFlags] = None,
    ):
        super().__init__(ctx, dim_embed, dim_edge, dim_time, opt)
        self.dim_mem = dim_mem
        self.mem_cell = RNNCell(dim_mem + dim_edge + dim_time, dim_mem)
        self.feat_linear = Linear(dim_node, dim_mem) if dim_node else None
        # Time-projected embedding: emb = W([mem', Phi(t - t_mem)]).
        self.embed_linear = Linear(dim_mem + dim_time, dim_embed)

    def embed(self, blk: TBlock) -> Tensor:
        """Embeddings of *blk*'s destination (node, time) rows; updates their memory."""
        inverse = blk.uniq_nodes()[1]
        mem = self.with_node_feats(blk, self.update_memory(blk))
        # Project memory forward from its (just updated) time to each row's
        # query time: the one per-row step.
        tfeat = self.time_feat(blk.dsttimes - blk.mem_ts()[inverse])
        return self.embed_linear(cat([mem[inverse], tfeat], dim=1))

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        head = batch.block(self.ctx)
        if self.opt.preload:
            store_ops.preload(head)
        embeds = self.embed(head)
        self.save_raw_msgs(batch)
        return embeds
