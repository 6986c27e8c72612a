"""TGL's memory/mailbox module, following the structure of Listing 3.

Unlike TGLite (where Memory/Mailbox live on the TGraph and blocks expose
``mem_data()``/``mail()`` accessors), TGL keeps both inside one ``MailBox``
component that the trainer threads through every step: the model must load
mail into the MFG's string-keyed dicts before the updater runs, stash
``last_updated_*`` state on the updater, and call the unique/perm scatter
sequence to store the latest message per node.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import GRUCell, Linear, Module, RNNCell, TimeEncode
from ..tensor import Tensor, cat
from ..tensor.device import Device, get_device
from .mfg import MFG

__all__ = ["TGLMailBox", "GRUMemoryUpdater", "RNNMemoryUpdater", "latest_unique_messages"]


def latest_unique_messages(nids: np.ndarray, mail: Tensor, ts: np.ndarray):
    """TGL's unique/perm trick: latest message per unique node (Listing 3 T).

    Args:
        nids: node id per message row (duplicates expected).
        mail: ``(rows, d)`` message tensor, chronologically ordered so a
            later row supersedes an earlier one for the same node.
        ts: delivery timestamp per row.

    Returns ``(uniq_nids, mail_rows, ts_rows)``.
    """
    uniq, inv = np.unique(nids, return_inverse=True)
    perm = np.zeros(len(uniq), dtype=np.int64)
    # Later rows overwrite earlier ones, leaving the last (latest) row index.
    perm[inv] = np.arange(len(inv), dtype=np.int64)
    return uniq, mail[perm], ts[perm]


class TGLMailBox:
    """Combined node-memory + mailbox storage in the TGL style.

    Args:
        num_nodes: node count.
        dim_mem: memory width.
        dim_mail: message width.
        slots: mailbox slots per node (APAN uses 10).
        device: where storage lives.
    """

    def __init__(
        self,
        num_nodes: int,
        dim_mem: int,
        dim_mail: int,
        slots: int = 1,
        device=None,
    ):
        self.num_nodes = num_nodes
        self.dim_mem = dim_mem
        self.dim_mail = dim_mail
        self.slots = slots
        self.device = get_device(device)
        self.node_memory = Tensor(np.zeros((num_nodes, dim_mem), dtype=np.float32), device=self.device)
        self.node_memory_ts = np.zeros(num_nodes, dtype=np.float64)
        mail_shape = (num_nodes, dim_mail) if slots == 1 else (num_nodes, slots, dim_mail)
        self.mailbox = Tensor(np.zeros(mail_shape, dtype=np.float32), device=self.device)
        ts_shape = (num_nodes,) if slots == 1 else (num_nodes, slots)
        self.mailbox_ts = np.zeros(ts_shape, dtype=np.float64)
        self._next_slot = np.zeros(num_nodes, dtype=np.int64) if slots > 1 else None

    def reset(self) -> None:
        self.node_memory.data[...] = 0.0
        self.node_memory_ts[...] = 0.0
        self.mailbox.data[...] = 0.0
        self.mailbox_ts[...] = 0.0
        if self._next_slot is not None:
            self._next_slot[...] = 0

    # ---- MFG loads (eager device loads, pageable) --------------------------------

    def prep_input_mails(self, mfg: MFG) -> None:
        """Gather memory/mail/timestamps for the MFG's nodes onto its device."""
        nodes = mfg.allnodes()
        mfg.srcdata["mem"] = Tensor(
            self.node_memory.data[nodes], device=self.device
        ).to(mfg.device)
        mfg.srcdata["mail"] = Tensor(
            self.mailbox.data[nodes], device=self.device
        ).to(mfg.device)
        mfg.srcdata["mem_ts"] = self.node_memory_ts[nodes]
        mfg.srcdata["mail_ts"] = self.mailbox_ts[nodes]

    # ---- state updates ----------------------------------------------------------

    def update_memory(self, nids: np.ndarray, memory: Tensor, ts: np.ndarray) -> None:
        """Persist updater outputs for (already unique) node ids.

        Cross-device writes pay the (pageable) simulated transfer cost —
        TGL has no pinned write-back path.
        """
        if isinstance(memory, Tensor) and memory.device is not self.device:
            memory = memory.to(self.device)
        self.node_memory.data[nids] = memory.data if isinstance(memory, Tensor) else memory
        self.node_memory_ts[nids] = ts

    def update_mailbox(self, nids: np.ndarray, mail: Tensor, ts: np.ndarray) -> None:
        """Store the latest message per node (unique/perm sequence).

        Cross-device writes pay the (pageable) simulated transfer cost.
        """
        if isinstance(mail, Tensor) and mail.device is not self.device:
            mail = mail.to(self.device)
        uniq, mail_rows, ts_rows = latest_unique_messages(nids, mail, ts)
        mail_data = mail_rows.data if isinstance(mail_rows, Tensor) else mail_rows
        if self.slots == 1:
            self.mailbox.data[uniq] = mail_data
            self.mailbox_ts[uniq] = ts_rows
        else:
            cursors = self._next_slot[uniq]
            self.mailbox.data[uniq, cursors] = mail_data
            self.mailbox_ts[uniq, cursors] = ts_rows
            self._next_slot[uniq] = (cursors + 1) % self.slots


class GRUMemoryUpdater(Module):
    """TGL's GRU memory updater (Listing 3 region R).

    Consumes an MFG pre-staged by :meth:`TGLMailBox.prep_input_mails`,
    writes the updated memory into ``mfg.srcdata['h']`` (merged with node
    features through a linear map), and keeps ``last_updated_*`` arrays for
    the trainer to persist after the step.
    """

    def __init__(self, dim_mail: int, dim_time: int, dim_mem: int, dim_node: int):
        super().__init__()
        self.time_encoder = TimeEncode(dim_time)
        self.gru_cell = GRUCell(dim_mail + dim_time, dim_mem)
        self.linear = Linear(dim_node, dim_mem) if dim_node else None
        self.last_updated_nids: Optional[np.ndarray] = None
        self.last_updated_ts: Optional[np.ndarray] = None
        self.last_updated_mem: Optional[Tensor] = None

    def forward(self, mfg: MFG) -> Tensor:
        delta = mfg.srcdata["mail_ts"] - mfg.srcdata["mem_ts"]
        tfeat = self.time_encoder(Tensor(delta.astype(np.float32), device=mfg.device))
        mail = cat([mfg.srcdata["mail"], tfeat], dim=1)
        mem = self.gru_cell(mail, mfg.srcdata["mem"])
        self.last_updated_nids = mfg.allnodes()
        self.last_updated_ts = mfg.srcdata["mail_ts"]
        self.last_updated_mem = mem.detach()
        if self.linear is not None and "feat" in mfg.srcdata:
            mem = mem + self.linear(mfg.srcdata["feat"])
        mfg.srcdata["h"] = mem
        return mem


class RNNMemoryUpdater(Module):
    """Vanilla RNN variant of the updater (used by JODIE in TGL)."""

    def __init__(self, dim_mail: int, dim_time: int, dim_mem: int, dim_node: int):
        super().__init__()
        self.time_encoder = TimeEncode(dim_time)
        self.rnn_cell = RNNCell(dim_mail + dim_time, dim_mem)
        self.linear = Linear(dim_node, dim_mem) if dim_node else None
        self.last_updated_nids: Optional[np.ndarray] = None
        self.last_updated_ts: Optional[np.ndarray] = None
        self.last_updated_mem: Optional[Tensor] = None

    def forward(self, mfg: MFG) -> Tensor:
        delta = mfg.srcdata["mail_ts"] - mfg.srcdata["mem_ts"]
        tfeat = self.time_encoder(Tensor(delta.astype(np.float32), device=mfg.device))
        mail = cat([mfg.srcdata["mail"], tfeat], dim=1)
        mem = self.rnn_cell(mail, mfg.srcdata["mem"])
        self.last_updated_nids = mfg.allnodes()
        self.last_updated_ts = mfg.srcdata["mail_ts"]
        self.last_updated_mem = mem.detach()
        if self.linear is not None and "feat" in mfg.srcdata:
            mem = mem + self.linear(mfg.srcdata["feat"])
        mfg.srcdata["h"] = mem
        return mem
