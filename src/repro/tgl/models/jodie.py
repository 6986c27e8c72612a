"""JODIE in the TGL framework style.

The paper notes TGL's design is not general enough for JODIE — the
framework has to expose JODIE-specific configuration (no sampling, RNN
updater, time-projection embedding).  This implementation mirrors that
shape: a degenerate zero-fanout MFG threads the batch nodes through the
same mailbox/updater machinery the other models use.
"""

from __future__ import annotations

import numpy as np

from ...core import TBatch
from ...core.graph import TGraph
from ...models.predictor import EdgePredictor
from ...nn import Linear, Module, TimeEncode
from ...tensor import Tensor, cat, no_grad
from ...tensor.device import get_device
from ..memory import RNNMemoryUpdater, TGLMailBox
from ..mfg import MFG

__all__ = ["TGLJODIE"]


class TGLJODIE(Module):
    """TGL-baseline JODIE: RNN memory with time-projected embeddings."""

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
    ):
        super().__init__()
        self.g = g
        self.device = get_device(device)
        self.mailbox = mailbox
        self.dim_edge = dim_edge
        self.memory_updater = RNNMemoryUpdater(
            dim_mail=mailbox.dim_mail, dim_time=dim_time, dim_mem=dim_mem, dim_node=dim_node
        )
        self.time_encoder = TimeEncode(dim_time)
        self.embed_linear = Linear(dim_mem + dim_time, dim_embed)
        self.edge_predictor = EdgePredictor(dim_embed)

    def reset_state(self) -> None:
        self.mailbox.reset()

    def _identity_mfg(self, nodes: np.ndarray, times: np.ndarray) -> MFG:
        """Neighbor-less MFG: JODIE's special-case plumbing inside TGL."""
        empty_i = np.empty(0, dtype=np.int64)
        return MFG(
            self.device, nodes, times,
            empty_i, empty_i, np.empty(0, dtype=np.float64), empty_i,
        )

    def compute_embeddings(self, batch: TBatch) -> Tensor:
        nodes = batch.nodes()
        times = batch.times()
        mfg = self._identity_mfg(nodes, times)
        self.mailbox.prep_input_mails(mfg)
        if self.g.nfeat is not None:
            mfg.load("feat", self.g.nfeat, which="all")
        self.memory_updater(mfg)
        mem = mfg.srcdata["h"]
        proj_delta = times - self.mailbox.node_memory_ts[nodes]
        tfeat = self.time_encoder(Tensor(proj_delta.astype(np.float32), device=self.device))
        return self.embed_linear(cat([mem, tfeat], dim=1))

    def _persist_memory(self) -> None:
        updater = self.memory_updater
        nids = updater.last_updated_nids
        mail_ts = updater.last_updated_ts
        mem_ts = self.mailbox.node_memory_ts[nids]
        fresh = mail_ts > mem_ts
        if fresh.any():
            idx = np.flatnonzero(fresh)
            self.mailbox.update_memory(
                nids[idx], updater.last_updated_mem[idx], mail_ts[idx]
            )

    def _store_batch_messages(self, batch: TBatch) -> None:
        with no_grad():
            mem = self.mailbox.node_memory.data
            peer_src = Tensor(mem[batch.dst], device=self.mailbox.device).to(self.device)
            peer_dst = Tensor(mem[batch.src], device=self.mailbox.device).to(self.device)
            if self.g.efeat is not None and self.dim_edge:
                efeats = Tensor(self.g.efeat.data[batch.eids], device=self.g.efeat.device).to(self.device)
                src_mail = cat([peer_src, efeats], dim=1)
                dst_mail = cat([peer_dst, efeats], dim=1)
            else:
                src_mail, dst_mail = peer_src, peer_dst
            mail = cat([src_mail, dst_mail], dim=0)
            nids = np.concatenate([batch.src, batch.dst])
            ts = np.tile(batch.ts, 2)
            self.mailbox.update_mailbox(nids, mail.cpu() if self.mailbox.device.is_cpu else mail, ts)

    def forward(self, batch: TBatch):
        embeds = self.compute_embeddings(batch)
        self._persist_memory()
        self._store_batch_messages(batch)
        return self.edge_predictor.score_batch(embeds, len(batch))
