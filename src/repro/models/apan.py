"""APAN on TGLite: asynchronous propagation attention network.

Mirrors the paper's Listing 6.  APAN inverts the usual order: embeddings
are generated *first* from messages already sitting in each node's mailbox
(size 10), then the batch's new messages are pushed outward to sampled
neighbors' mailboxes via the push-style ``propagate`` operator — no
neighborhood sampling sits on the embedding critical path, which is what
makes APAN suitable for real-time serving.

Components: attention over mailbox slots (with time encoding of message
staleness), GRU memory updates, and scatter-mean mail delivery.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core import TBatch, TBlock, TContext, TSampler
from ..core import op as tgop
from ..store import ops as store_ops
from ..nn import GRUCell, Linear
from ..tensor import Tensor, cat, no_grad
from .base import MemoryModel, OptFlags

__all__ = ["APAN"]


class APAN(MemoryModel):
    """APAN (Wang et al.) built on TGLite.

    The graph needs ``Memory`` of width *dim_mem* and a ``Mailbox`` with
    *mailbox_slots* slots of width ``2 * dim_mem + dim_edge``.
    """

    def __init__(
        self,
        ctx: TContext,
        dim_node: int,
        dim_edge: int,
        dim_time: int = 100,
        dim_embed: int = 100,
        dim_mem: int = 100,
        num_heads: int = 2,
        num_nbrs: int = 10,
        mailbox_slots: int = 10,
        sampling: str = "recent",
        opt: Optional[OptFlags] = None,
    ):
        super().__init__(ctx, dim_embed, dim_edge, dim_time, opt)
        if dim_embed % num_heads != 0:
            raise ValueError("dim_embed must be divisible by num_heads")
        self.dim_mem = dim_mem
        self.dim_embed = dim_embed
        self.num_heads = num_heads
        self.mailbox_slots = mailbox_slots
        self.sampler = TSampler(num_nbrs, sampling)
        mail_dim = self.required_mailbox_dim(dim_mem, dim_edge)
        self.w_q = Linear(dim_mem, dim_embed)
        self.w_k = Linear(mail_dim + dim_time, dim_embed)
        self.w_v = Linear(mail_dim + dim_time, dim_embed)
        self.w_out = Linear(dim_mem + dim_embed, dim_embed)
        self.mem_cell = GRUCell(mail_dim + dim_time, dim_mem)
        self.feat_linear = Linear(dim_node, dim_mem) if dim_node else None

    def reduce_mail(self, mail: Tensor, mail_ts: np.ndarray) -> Tuple[Tensor, np.ndarray]:
        """The mean of a node's mailbox slots, delivered at its newest slot's time."""
        return mail.mean(dim=1), mail_ts.max(axis=1)

    # ---- embedding via mailbox attention ----------------------------------------------

    def embed(self, blk: TBlock) -> Tensor:
        """Embeddings of *blk*'s destination (node, time) rows; updates their memory.

        Memory update, feature projection and the query are per unique node;
        only the attention over each row's mailbox slots is per row, because
        a slot's staleness is measured from the row's own query time.
        """
        inverse = blk.uniq_nodes()[1]
        mem = self.with_node_feats(blk, self.update_memory(blk))
        mail = blk.mail()[inverse]
        deltas = blk.dsttimes[:, None] - blk.mail_ts()[inverse]  # (n, slots)

        n, slots = deltas.shape
        heads, d_head = self.num_heads, self.dim_embed // self.num_heads
        tfeat = self.time_feat(deltas.reshape(-1)).reshape(n, slots, -1)
        kv_in = cat([mail, tfeat], dim=2)
        q = self.w_q(mem)[inverse].reshape(n, 1, heads, d_head)
        k = self.w_k(kv_in).reshape(n, slots, heads, d_head)
        v = self.w_v(kv_in).reshape(n, slots, heads, d_head)
        scores = (q * k).sum(dim=3) * (1.0 / np.sqrt(d_head))  # (n, slots, heads)
        attn = scores.softmax(dim=1)
        out = (v * attn.unsqueeze(3)).sum(dim=1)  # (n, heads, d_head)
        out = out.reshape(n, heads * d_head)
        return self.w_out(cat([mem[inverse], out], dim=1)).relu()

    # ---- mail propagation ---------------------------------------------------------------------

    def send_mails(self, blk: TBlock) -> None:
        """Scatter-mean each block's mails onto its unique source nodes."""
        if blk.num_src == 0 or "mail" not in blk.dstdata:
            return
        with no_grad():
            mail = tgop.src_scatter(blk, blk.dstdata["mail"][blk.dstindex], op="mean")
            uniq, inverse = blk.uniq_src()
            # Delivery time is the mean event time, reduced in float64: float32
            # rounds a timestamp past the event that sent the mail.
            times = np.bincount(inverse, weights=blk.dsttimes[blk.dstindex]) / np.bincount(inverse)
            self.store_mail(blk, uniq, mail, times)

    # ---- forward ------------------------------------------------------------------------------

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        head = batch.block(self.ctx)
        if self.opt.preload:
            store_ops.preload(head)
        embeds = self.embed(head)

        # Propagate this batch's messages outward (to endpoints' neighbors
        # *and* the endpoints themselves, which see their own interaction).
        adj = batch.block_adj(self.ctx)  # one row per endpoint, peer as its neighbor
        blk = self.sampler.sample(TBlock(self.ctx, 0, adj.dstnodes, adj.dsttimes))
        # Deliver each endpoint's mail to itself by appending self-rows.
        blk.set_nbrs(
            np.concatenate([blk.srcnodes, adj.dstnodes]),
            np.concatenate([blk.eids, adj.eids]),
            np.concatenate([blk.etimes, adj.dsttimes]),
            np.concatenate([blk.dstindex, adj.dstindex]),
        )
        blk.dstdata["mail"] = self.raw_msgs(adj)
        tgop.propagate(blk, self.send_mails)
        return embeds
