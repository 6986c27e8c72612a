"""Temporal multi-head attention layer over a TBlock (Eqs. 4-7).

The layer expresses TGAT's temporal self-attention "edge-wise": it hands the
destination queries and what keys and values are made of — neighbor
embeddings, edge features, time encodings, side by side as *parts* — to
:func:`~repro.core.op.edge_attention`, the fused block operator that scores
every source row against its destination's query, normalizes within each
destination's neighbor group and reduces the weighted values.  That is the
natural TBlock formulation the paper contrasts against batched-matmul /
masked-softmax gymnastics, and the same core the TGL baseline's
:class:`~repro.tgl.models.attention.TGLAttnLayer` calls.  Parts are never
concatenated; the ones that are a function of the source node or the edge
(``srcdata['h']`` at the tail, ``TBlock.uniq_efeat()`` on every hop) are
passed keyed, ``(rows, index)``, and projected once per unique row.
"""

from __future__ import annotations

import numpy as np

from ..core import TBlock, TContext
from ..core import op as tgop
from ..nn import Dropout, LayerNorm, Linear, Module, TimeEncode
from ..spans import span
from ..tensor import Tensor, cat

__all__ = ["TemporalAttnLayer"]


class TemporalAttnLayer(Module):
    """One hop of temporal attention aggregation.

    Args:
        ctx: TGLite context (placement + precompute scratch).
        num_heads: attention heads.
        dim_node: width of the incoming ``dstdata['h']``/``srcdata['h']``.
        dim_edge: edge feature width (0 if the graph has none).
        dim_time: time-encoding width.
        dim_out: output embedding width.
        dropout: dropout on the output.
        opt_time_precompute: when True, query time vectors from the
            context's precomputed tables in inference mode (the paper's
            ``precomputed_zeros``/``precomputed_times`` operators);
            when False, always encode through the TimeEncode module.
    """

    def __init__(
        self,
        ctx: TContext,
        num_heads: int,
        dim_node: int,
        dim_edge: int,
        dim_time: int,
        dim_out: int,
        dropout: float = 0.1,
        opt_time_precompute: bool = False,
    ):
        super().__init__()
        if dim_out % num_heads != 0:
            raise ValueError("dim_out must be divisible by num_heads")
        self.ctx = ctx
        self.num_heads = num_heads
        self.dim_node = dim_node
        self.dim_time = dim_time
        self.dim_out = dim_out
        self.opt_time_precompute = opt_time_precompute
        self.time_encoder = TimeEncode(dim_time)
        self.w_q = Linear(dim_node + dim_time, dim_out)
        self.w_k = Linear(dim_node + dim_edge + dim_time, dim_out)
        self.w_v = Linear(dim_node + dim_edge + dim_time, dim_out)
        self.w_out = Linear(dim_node + dim_out, dim_out)
        self.layer_norm = LayerNorm(dim_out)
        self.dropout = Dropout(dropout)

    def _zero_time(self, n: int) -> Tensor:
        with span("time_zero"):
            if self.opt_time_precompute:
                return tgop.precomputed_zeros(self.ctx, self.time_encoder, n)
            return self.time_encoder.zero(n, self.ctx.device)

    def _nbr_time(self, deltas: np.ndarray):
        """``Phi(t - t_j)`` as a K/V part: precomputed rows in inference under
        ``opt_time_precompute``, else a time part ``edge_attention`` encodes
        (under the same ``time_nbrs`` span)."""
        if self.opt_time_precompute and not self.ctx.training:
            with span("time_nbrs"):
                return tgop.precomputed_times(self.ctx, self.time_encoder, deltas)
        return self.time_encoder.part(deltas)

    def forward(self, blk: TBlock) -> Tensor:
        """Compute destination embeddings ``(num_dst, dim_out)`` for *blk*.

        ``blk.srcdata['h']`` is a source-row-aligned tensor or a keyed
        ``(rows, index)`` pair.
        """
        h_dst = blk.dstdata["h"]
        if blk.num_src == 0:
            # No temporal neighbors anywhere: output reduces to the FFN of
            # the destination features with a zero aggregate.
            reduced = Tensor(np.zeros((blk.num_dst, self.dim_out), dtype=np.float32),
                             device=self.ctx.device)
        else:
            parts = [blk.srcdata["h"]]
            if blk.g.efeat is not None:
                parts.append(blk.uniq_efeat())
            parts.append(self._nbr_time(blk.time_deltas()))  # Phi(t - t_j), Eq. (5)
            zq = cat([h_dst, self._zero_time(blk.num_dst)], dim=1)  # Phi(0), Eq. (4)
            reduced = tgop.edge_attention(  # Eq. (6)
                blk, self.w_q(zq), parts, self.w_k, self.w_v, self.num_heads)
        out = self.w_out(cat([reduced, h_dst], dim=1))  # Eq. (7)
        return self.layer_norm(self.dropout(out.relu()))
