"""TGN in the TGL framework style: MFG attention + TGLMailBox machinery."""

from __future__ import annotations

import numpy as np

from ...core import TBatch
from ...core.graph import TGraph
from ...models.predictor import EdgePredictor
from ...nn import Module, ModuleList
from ...tensor import Tensor, cat, no_grad
from ...tensor.device import get_device
from ..memory import GRUMemoryUpdater, TGLMailBox, latest_unique_messages
from ..sampler import TGLSampler
from .attention import TGLAttnLayer

__all__ = ["TGLTGN"]


class TGLTGN(Module):
    """TGL-baseline TGN: GRU memory + 2-hop padded attention.

    The memory lifecycle follows TGL's Listing 3: ``prep_input_mails``
    stages mail into the innermost MFG, the ``GRUMemoryUpdater`` computes
    new memory (recording ``last_updated_*``), the trainer-visible forward
    persists those and finally rebuilds the mailbox from this batch's
    edges with the unique/perm scatter sequence.
    """

    def __init__(
        self,
        g: TGraph,
        mailbox: TGLMailBox,
        device=None,
        dim_node: int = 0,
        dim_edge: int = 0,
        dim_time: int = 100,
        dim_embed: int = 100,
        dim_mem: int = 100,
        num_layers: int = 2,
        num_heads: int = 2,
        num_nbrs: int = 10,
        dropout: float = 0.1,
        sampling: str = "recent",
    ):
        super().__init__()
        self.g = g
        self.device = get_device(device)
        self.mailbox = mailbox
        self.dim_edge = dim_edge
        self.num_layers = num_layers
        self.sampler = TGLSampler(g, num_nbrs, sampling)
        self.memory_updater = GRUMemoryUpdater(
            dim_mail=mailbox.dim_mail, dim_time=dim_time, dim_mem=dim_mem, dim_node=dim_node
        )
        layers = []
        for i in range(num_layers):
            layers.append(
                TGLAttnLayer(
                    num_heads=num_heads,
                    dim_node=dim_mem if i == 0 else dim_embed,
                    dim_edge=dim_edge,
                    dim_time=dim_time,
                    dim_out=dim_embed,
                    dropout=dropout,
                )
            )
        self.layers = ModuleList(layers)
        self.edge_predictor = EdgePredictor(dim_embed)

    def reset_state(self) -> None:
        self.mailbox.reset()

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        mfgs = self.sampler.sample(self.device, batch.nodes(), batch.times(), self.num_layers)
        inner = mfgs[0]
        self.mailbox.prep_input_mails(inner)
        if self.g.nfeat is not None:
            inner.load("feat", self.g.nfeat, which="all")
        self.memory_updater(inner)  # fills inner.srcdata['h']
        if self.g.efeat is not None:
            for mfg in mfgs:
                mfg.load_edges("f", self.g.efeat)
        h = None
        for i, mfg in enumerate(mfgs):
            h = self.layers[i](mfg)
            if i + 1 < len(mfgs):
                mfgs[i + 1].srcdata["h"] = h
        return h

    def _persist_memory(self) -> None:
        updater = self.memory_updater
        nids = updater.last_updated_nids
        uniq, mem_rows, ts_rows = latest_unique_messages(
            nids, updater.last_updated_mem, updater.last_updated_ts
        )
        self.mailbox.update_memory(uniq, mem_rows, ts_rows)

    def _store_batch_messages(self, batch: TBatch) -> None:
        with no_grad():
            mem = self.mailbox.node_memory.data
            mem_src = Tensor(mem[batch.src], device=self.mailbox.device).to(self.device)
            mem_dst = Tensor(mem[batch.dst], device=self.mailbox.device).to(self.device)
            if self.g.efeat is not None and self.dim_edge:
                efeats = Tensor(self.g.efeat.data[batch.eids], device=self.g.efeat.device).to(self.device)
                src_mail = cat([mem_src, mem_dst, efeats], dim=1)
                dst_mail = cat([mem_dst, mem_src, efeats], dim=1)
            else:
                src_mail = cat([mem_src, mem_dst], dim=1)
                dst_mail = cat([mem_dst, mem_src], dim=1)
            mail = cat([src_mail, dst_mail], dim=0)
            nids = np.concatenate([batch.src, batch.dst])
            ts = np.tile(batch.ts, 2)
            self.mailbox.update_mailbox(nids, mail.cpu() if self.mailbox.device.is_cpu else mail, ts)

    def forward(self, batch: TBatch):
        embeds = self.compute_embeddings(batch)
        self._persist_memory()
        self._store_batch_messages(batch)
        return self.edge_predictor.score_batch(embeds, len(batch))
