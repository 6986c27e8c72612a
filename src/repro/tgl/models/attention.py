"""TGL's temporal attention layer over a sparse MFG.

Computes exactly what TGLite's
:class:`~repro.models.attention.TemporalAttnLayer` computes — both call the
one fused core, :func:`~repro.tensor.segment.segment_attention`, as the
paper's near-parity baseline comparison requires — but structured
TGL-style: it consumes an MFG's string-keyed ``srcdata`` (rows for seeds
followed by neighbor rows) and per-row ``edata``, so every feature part it
passes is dense (an MFG has no per-unique accessors); it uses the *fused*
time deltas the sampler precomputed, and always encodes them through the
module's time part (TGL has no precompute operators to swap in), inside
its attention stage.
"""

from __future__ import annotations

import numpy as np

from ...nn import Dropout, LayerNorm, Linear, Module, TimeEncode
from ...tensor import Tensor, cat
from ...tensor.segment import segment_attention
from ..mfg import MFG

__all__ = ["TGLAttnLayer"]


class TGLAttnLayer(Module):
    """One attention hop for the TGL baseline."""

    def __init__(
        self,
        num_heads: int,
        dim_node: int,
        dim_edge: int,
        dim_time: int,
        dim_out: int,
        dropout: float = 0.1,
    ):
        super().__init__()
        if dim_out % num_heads != 0:
            raise ValueError("dim_out must be divisible by num_heads")
        self.num_heads = num_heads
        self.dim_out = dim_out
        self.dim_edge = dim_edge
        self.time_encoder = TimeEncode(dim_time)
        self.w_q = Linear(dim_node + dim_time, dim_out)
        self.w_k = Linear(dim_node + dim_edge + dim_time, dim_out)
        self.w_v = Linear(dim_node + dim_edge + dim_time, dim_out)
        self.w_out = Linear(dim_node + dim_out, dim_out)
        self.layer_norm = LayerNorm(dim_out)
        self.dropout = Dropout(dropout)

    def forward(self, mfg: MFG) -> Tensor:
        n = mfg.num_dst
        h_all = mfg.srcdata["h"]
        h_dst = h_all[:n]
        if mfg.num_src == 0:
            reduced = Tensor(np.zeros((n, self.dim_out), dtype=np.float32), device=mfg.device)
        else:
            parts = [h_all[n:]]
            if "f" in mfg.edata and self.dim_edge:
                parts.append(mfg.edata["f"])
            # Deltas were fused into the MFG at sampling time.
            parts.append(self.time_encoder.part(mfg.deltas))
            tfeat_dst = self.time_encoder(Tensor(np.zeros(n, dtype=np.float32), device=mfg.device))
            reduced = segment_attention(
                self.w_q(cat([h_dst, tfeat_dst], dim=1)), parts,
                self.w_k.weight, self.w_k.bias, self.w_v.weight, self.w_v.bias,
                mfg.dstindex, n, self.num_heads)
        out = self.w_out(cat([reduced, h_dst], dim=1))
        return self.layer_norm(self.dropout(out.relu()))
