"""Shared scaffolding for the TGLite-based model implementations.

Models read graph-level tables (node/edge features, memory, mail) only
through :class:`~repro.core.TBlock` accessors: node-keyed state once per
unique node of the block, expanded by ``uniq_nodes()``'s inverse only where
a per-row time enters.  Pinned or pageable is decided there too — the
accessors' ``pin`` and :meth:`TBlock.write_back` — from ``OptFlags.preload``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core import TBatch, TBlock, TContext
from ..core import op as tgop
from ..nn import Module, TimeEncode
from ..spans import span
from ..tensor import Tensor, cat, no_grad
from .predictor import EdgePredictor

__all__ = ["OptFlags", "TGNNModel", "MemoryModel"]


@dataclass
class OptFlags:
    """Which TGLite optimization operators a model applies.

    Matches the paper's settings: ``TGLite`` = only ``preload`` (data
    movement), ``TGLite+opt`` = all applicable operators, with ``cache``
    and the precomputed-time operators taking effect at inference only
    (the operators themselves are training-aware).
    """

    dedup: bool = False
    cache: bool = False
    time_precompute: bool = False
    preload: bool = False

    @classmethod
    def none(cls) -> "OptFlags":
        """No optimization operators (pure baseline semantics)."""
        return cls()

    @classmethod
    def preload_only(cls) -> "OptFlags":
        """The paper's plain ``TGLite`` setting."""
        return cls(preload=True)

    @classmethod
    def all(cls) -> "OptFlags":
        """The paper's ``TGLite+opt`` setting."""
        return cls(dedup=True, cache=True, time_precompute=True, preload=True)


class TGNNModel(Module):
    """Base class: holds the context, predictor, and scoring helper."""

    def __init__(self, ctx: TContext, dim_embed: int, opt: Optional[OptFlags] = None):
        super().__init__()
        self.ctx = ctx
        self.opt = opt if opt is not None else OptFlags.none()
        self.edge_predictor = EdgePredictor(dim_embed)

    @property
    def g(self):
        return self.ctx.graph

    def train(self, mode: bool = True) -> "TGNNModel":
        super().train(mode)
        self.ctx.train(mode)
        return self

    def reset_state(self) -> None:
        """Zero any persistent state (memory/mailbox) before an epoch."""
        self.g.reset_state()
        self.ctx.clear_embed_cache()

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        """Embeddings for the batch's [src, dst, neg] targets."""
        raise NotImplementedError

    def forward(self, batch: TBatch) -> Tuple[Tensor, Tensor]:
        """Positive and negative edge logits for a batch.

        Requires ``batch.neg_nodes`` to be attached by the caller.
        """
        if batch.neg_nodes is None:
            raise ValueError("batch has no negative samples attached")
        embeds = self.compute_embeddings(batch)
        with span("pred_loss"):
            return self.edge_predictor.score_batch(embeds, len(batch))


class MemoryModel(TGNNModel):
    """TGN / JODIE / APAN: node memory driven by mailbox messages.

    A subclass assigns ``mem_cell`` (the GRU or RNN cell over ``[message,
    time encoding]``) and ``feat_linear`` (``Linear(dim_node, dim_mem)`` or
    None), and may override :meth:`reduce_mail` and the two policy
    attributes below; everything else about memory is shared.
    """

    #: persist only rows whose mail is newer than their memory, so reading
    #: a mailbox again never applies a message twice (TGN persists all).
    fresh_only = True
    #: a raw message starts with the receiving node's own memory.
    mail_own = True

    def __init__(self, ctx: TContext, dim_embed: int, dim_edge: int, dim_time: int,
                 opt: Optional[OptFlags] = None):
        super().__init__(ctx, dim_embed, opt)
        self.dim_edge = dim_edge
        self.time_encoder = TimeEncode(dim_time)

    @classmethod
    def required_mailbox_dim(cls, dim_mem: int, dim_edge: int) -> int:
        """Mailbox message width: [own memory,] peer memory, edge features."""
        return (2 if cls.mail_own else 1) * dim_mem + dim_edge

    def time_feat(self, deltas: np.ndarray) -> Tensor:
        """Time encoding of *deltas* (each distinct one once under ``time_precompute``)."""
        if self.opt.time_precompute:
            return tgop.precomputed_times(self.ctx, self.time_encoder, deltas)
        return self.time_encoder(Tensor(deltas.astype(np.float32), device=self.ctx.device))

    def reduce_mail(self, mail: Tensor, mail_ts: np.ndarray) -> Tuple[Tensor, np.ndarray]:
        """One message and delivery time per node from its mailbox rows (one slot: as stored)."""
        return mail, mail_ts

    def update_memory(self, blk: TBlock) -> Tensor:
        """Update memory for the block's unique nodes from their mailbox messages.

        Implements Eqs. (9-11): the stored raw message plus a time encoding
        of (delivery time - last update time) drive a recurrent cell whose
        hidden state is the node's previous memory.  All of it is node-keyed,
        so it runs on one row per unique node (``blk.uniq_nodes()`` order).
        New values are persisted (detached) and returned (attached) for
        use in the embeddings, which is how memory modules receive
        gradients through the batch loss.
        """
        mail, mail_ts = self.reduce_mail(blk.mail(), blk.mail_ts())
        mem_ts = blk.mem_ts()
        mem = self.mem_cell(cat([mail, self.time_feat(mail_ts - mem_ts)], dim=1), blk.mem_data())
        nodes, new = blk.uniq_nodes()[0], mem.detach()
        if self.fresh_only:
            fresh = np.flatnonzero(mail_ts > mem_ts)
            nodes, new, mail_ts = nodes[fresh], new[fresh], mail_ts[fresh]
        if len(nodes):
            new = blk.write_back(new, self.g.mem.device, pin=self.opt.preload)
            self.g.mem.update(nodes, new, mail_ts)
        return mem

    def with_node_feats(self, blk: TBlock, mem: Tensor) -> Tensor:
        """*mem* (``blk.uniq_nodes()`` order) plus the projected static node features."""
        if self.feat_linear is None or self.g.nfeat is None:
            return mem
        return mem + self.feat_linear(blk.uniq_nfeat())

    def raw_msgs(self, blk: TBlock) -> Tensor:
        """``[own memory,] peer memory, edge features`` per row of an adjacency block.

        *blk* comes from ``batch.block_adj`` (coalesced or not), built after
        :meth:`update_memory`: accessor caches are per block, so a fresh
        block reads the updated memory — once per unique endpoint, expanded
        to both sides.
        """
        pin = self.opt.preload
        with no_grad():
            mem = blk.mem_data(pin=pin)
            inverse = blk.uniq_nodes()[1]
            parts = [mem[inverse[: blk.num_dst]]] if self.mail_own else []
            parts.append(mem[inverse[blk.num_dst :]])
            if self.g.efeat is not None and self.dim_edge:
                rows, index = blk.uniq_efeat(pin=pin)
                parts.append(rows[index])
            return cat(parts, dim=1)

    def store_mail(self, blk: TBlock, nodes: np.ndarray, mail: Tensor, times: np.ndarray) -> None:
        """Deliver *mail* to *nodes*' mailboxes for consumption by later batches."""
        mail = blk.write_back(mail, self.g.mailbox.device, pin=self.opt.preload)
        self.g.mailbox.store(nodes, mail, times)

    def save_raw_msgs(self, batch: TBatch) -> None:
        """Store the batch's latest raw message per endpoint node."""
        blk = tgop.coalesce(batch.block_adj(self.ctx), by="latest")
        self.store_mail(blk, blk.dstnodes, self.raw_msgs(blk), blk.etimes)
