"""TGAT in the TGL framework style: list-of-MFGs, manual inter-layer flow."""

from __future__ import annotations

import numpy as np

from ...core import TBatch
from ...core.graph import TGraph
from ...models.predictor import EdgePredictor
from ...nn import Module, ModuleList
from ...spans import span
from ...tensor import Tensor
from ...tensor.device import get_device
from ..sampler import TGLSampler
from .attention import TGLAttnLayer

__all__ = ["TGLTGAT"]


class TGLTGAT(Module):
    """TGL-baseline TGAT.

    The trainer-facing interface (``forward(batch) -> (pos, neg)``,
    ``reset_state()``) matches the TGLite models so both run under the same
    harness; internally all data flow is MFG-based with eager pageable
    loading and no optimization operators.
    """

    def __init__(
        self,
        g: TGraph,
        device=None,
        dim_node: int = 0,
        dim_edge: int = 0,
        dim_time: int = 100,
        dim_embed: int = 100,
        num_layers: int = 2,
        num_heads: int = 2,
        num_nbrs: int = 10,
        dropout: float = 0.1,
        sampling: str = "recent",
    ):
        super().__init__()
        self.g = g
        self.device = get_device(device)
        self.num_layers = num_layers
        self.sampler = TGLSampler(g, num_nbrs, sampling)
        layers = []
        for i in range(num_layers):
            layers.append(
                TGLAttnLayer(
                    num_heads=num_heads,
                    dim_node=dim_node if i == 0 else dim_embed,
                    dim_edge=dim_edge,
                    dim_time=dim_time,
                    dim_out=dim_embed,
                    dropout=dropout,
                )
            )
        self.layers = ModuleList(layers)
        self.edge_predictor = EdgePredictor(dim_embed)

    def reset_state(self) -> None:
        """TGAT keeps no persistent state."""

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        # Time deltas are computed by the sampler (MFG construction) and
        # encoded inside the layers, so TGL has no separate time stage.
        with span("sample"):
            mfgs = self.sampler.sample(self.device, batch.nodes(), batch.times(), self.num_layers)
        # Prepare inputs: raw features for the innermost hop's full padded
        # node set, edge features for every hop (all eagerly, pageable).
        with span("data_load"):
            mfgs[0].load("h", self.g.nfeat, which="all")
            if self.g.efeat is not None:
                for mfg in mfgs:
                    mfg.load_edges("f", self.g.efeat)
        with span("attention"):
            h = None
            for i, mfg in enumerate(mfgs):
                h = self.layers[i](mfg)
                if i + 1 < len(mfgs):
                    mfgs[i + 1].srcdata["h"] = h
            return h

    def forward(self, batch: TBatch):
        embeds = self.compute_embeddings(batch)
        with span("pred_loss"):
            return self.edge_predictor.score_batch(embeds, len(batch))
