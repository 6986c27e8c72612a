"""TGAT on TGLite: multi-hop temporal attention with time encoding.

Mirrors the paper's Listing 2: the model iteratively creates a chain of
TBlocks (one per layer), applies optimization operators to each block
before sampling (``dedup``/``cache``), samples temporal neighbors,
optionally preloads the chain's data through pinned memory, seeds the tail
with raw node features — the source side keyed, one row per unique source
node — and runs pull-style ``aggregate`` through the temporal attention
layers.
"""

from __future__ import annotations

from typing import Optional

from ..core import TBatch, TContext, TSampler
from ..core import op as tgop
from ..store import ops as store_ops
from ..nn import ModuleList
from ..spans import span
from ..tensor import Tensor
from .attention import TemporalAttnLayer
from .base import OptFlags, TGNNModel

__all__ = ["TGAT"]


class TGAT(TGNNModel):
    """Temporal Graph Attention Network (Xu et al.) built on TGLite.

    Args:
        ctx: TGLite context.
        dim_node: raw node feature width.
        dim_edge: raw edge feature width.
        dim_time: time-encoding width.
        dim_embed: embedding width (all layers).
        num_layers: attention hops (paper evaluates 2).
        num_heads: attention heads.
        num_nbrs: temporal neighbors sampled per hop (paper evaluates 10).
        dropout: output dropout within attention layers.
        sampling: ``'recent'`` or ``'uniform'``.
        opt: which optimization operators to apply (see :class:`OptFlags`).
    """

    def __init__(
        self,
        ctx: TContext,
        dim_node: int,
        dim_edge: int,
        dim_time: int = 100,
        dim_embed: int = 100,
        num_layers: int = 2,
        num_heads: int = 2,
        num_nbrs: int = 10,
        dropout: float = 0.1,
        sampling: str = "recent",
        opt: Optional[OptFlags] = None,
    ):
        super().__init__(ctx, dim_embed, opt)
        self.num_layers = num_layers
        self.num_nbrs = num_nbrs
        self.sampler = TSampler(num_nbrs, sampling)
        layers = []
        for i in range(num_layers):
            layers.append(
                TemporalAttnLayer(
                    ctx,
                    num_heads=num_heads,
                    dim_node=dim_node if i == 0 else dim_embed,
                    dim_edge=dim_edge,
                    dim_time=dim_time,
                    dim_out=dim_embed,
                    dropout=dropout,
                    opt_time_precompute=self.opt.time_precompute,
                )
            )
        # layers[0] consumes raw features (applied at the tail block).
        self.attn_layers = ModuleList(layers)

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        with span("batch_prep"):
            head = batch.block(self.ctx)
            tail = head
            for i in range(self.num_layers):
                if i > 0:
                    tail = tail.next_block()
                if self.opt.dedup:
                    tail = tgop.dedup(tail)
                if self.opt.cache:
                    tail = store_ops.memoize(self.ctx, tail)
                with span("sample"):
                    tail = self.sampler.sample(tail)
        with span("data_load"):
            if self.opt.preload:
                store_ops.preload(head)
            tail.dstdata["h"] = tail.dstfeat()
            tail.srcdata["h"] = tail.uniq_srcfeat()
        with span("attention"):
            return tgop.aggregate(head, list(self.attn_layers), key="h")
