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

import numpy as np

from ..core import TBatch, TBlock, TContext, TSampler
from ..core import op as tgop
from ..store import ops as store_ops
from ..nn import GRUCell, Linear, ModuleList, TimeEncode
from ..tensor import Tensor, cat, no_grad
from .attention import TemporalAttnLayer
from .base import OptFlags, TGNNModel

__all__ = ["TGN"]


class TGN(TGNNModel):
    """Temporal Graph Network (Rossi et al.) built on TGLite.

    The graph must have ``Memory`` of width *dim_mem* and a single-slot
    ``Mailbox`` of width ``2 * dim_mem + dim_edge`` attached (see
    :meth:`required_mailbox_dim`).
    """

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
        super().__init__(ctx, dim_embed, opt)
        self.num_layers = num_layers
        self.dim_mem = dim_mem
        self.dim_edge = dim_edge
        self.sampler = TSampler(num_nbrs, sampling)
        self.mem_time_encoder = TimeEncode(dim_time)
        mail_dim = self.required_mailbox_dim(dim_mem, dim_edge)
        self.gru_cell = GRUCell(mail_dim + dim_time, dim_mem)
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

    @staticmethod
    def required_mailbox_dim(dim_mem: int, dim_edge: int) -> int:
        """Mailbox message width: [own memory, peer memory, edge features]."""
        return 2 * dim_mem + dim_edge

    # ---- memory machinery -----------------------------------------------------------

    def update_memory(self, blk: TBlock) -> Tensor:
        """GRU-update memory for the block's unique nodes from mailbox messages.

        Implements Eqs. (9-11): the stored raw message plus a time encoding
        of (delivery time - last update time) drive a GRU whose hidden
        state is the node's previous memory.  All of it is node-keyed, so
        it runs on one row per unique node (``blk.uniq_nodes()`` order).
        New values are persisted (detached) and returned (attached) for
        use in the embeddings, which is how memory modules receive
        gradients through the batch loss.
        """
        mail_ts = blk.mail_ts()
        delta = mail_ts - blk.mem_ts()
        tfeat = tgop.precomputed_times(self.ctx, self.mem_time_encoder, delta) \
            if self.opt.time_precompute \
            else self.mem_time_encoder(Tensor(delta.astype(np.float32), device=self.ctx.device))
        gru_input = cat([blk.mail(), tfeat], dim=1)
        mem = self.gru_cell(gru_input, blk.mem_data())
        self.g.mem.update(
            blk.uniq_nodes()[0], self.to_storage(mem.detach(), self.g.mem.device), mail_ts
        )
        return mem

    def save_raw_msgs(self, batch: TBatch) -> None:
        """Store this batch's raw messages for consumption by later batches."""
        blk = batch.block_adj(self.ctx)
        blk = tgop.coalesce(blk, by="latest")  # latest message per node
        with no_grad():
            own = self.fetch_rows(self.g.mem.data, blk.dstnodes)
            peer = self.fetch_rows(self.g.mem.data, blk.srcnodes)
            if self.g.efeat is not None and self.dim_edge:
                mail = cat([own, peer, blk.efeat()], dim=1)
            else:
                mail = cat([own, peer], dim=1)
            store_mail = self.to_storage(mail, self.g.mailbox.device)
            self.g.mailbox.store(blk.dstnodes, store_mail, blk.etimes)

    # ---- forward ----------------------------------------------------------------------

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
            store_ops.preload(head, use_pin=self.opt.pin_memory)

        uniq, inverse = tail.uniq_nodes()
        h_uniq = self.update_memory(tail)
        if self.feat_linear is not None:
            h_uniq = self.feat_linear(self.fetch_rows(self.g.nfeat, uniq)) + h_uniq
        tail.dstdata["h"] = h_uniq[inverse[: tail.num_dst]]
        tail.srcdata["h"] = (h_uniq, inverse[tail.num_dst :])
        embeds = tgop.aggregate(head, list(self.attn_layers), key="h")
        self.save_raw_msgs(batch)
        return embeds
