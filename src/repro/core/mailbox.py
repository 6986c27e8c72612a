"""Mailbox storage: raw messages delivered to nodes for later batches.

Memory-based TGNN training must avoid *information leakage* — a batch's
edges may not influence the predictions made for that same batch.  The
standard scheme (adopted from TGN and TGL) stores each batch's raw messages
in a mailbox at the end of the forward pass and consumes them at the *next*
memory update.  ``Mailbox`` supports a single slot (TGN/JODIE: latest
message wins) or a ring of ``slots`` messages per node (APAN: mailbox of
size 10, aggregated by the model).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..tensor import Tensor
from ..tensor.device import Device, get_device
from .kernels.dedup import canonical_event_order, has_repeats, last_event_wins
from .state import TableState

__all__ = ["Mailbox"]


class Mailbox(TableState):
    """Per-node message slots and delivery timestamps.

    Args:
        num_nodes: number of nodes.
        dim: message vector width.
        slots: messages retained per node; 1 keeps only the latest.
        device: backing storage placement.
    """

    TABLE_KEYS = ("mailbox/mail", "mailbox/time", "mailbox/cursor")

    def __init__(
        self,
        num_nodes: int,
        dim: int,
        slots: int = 1,
        device: Union[str, Device, None] = None,
    ):
        if slots < 1:
            raise ValueError("mailbox needs at least one slot")
        self.num_nodes = num_nodes
        self.dim = dim
        self.slots = slots
        self.device = get_device(device)
        shape = (num_nodes, dim) if slots == 1 else (num_nodes, slots, dim)
        self.mail = Tensor(np.zeros(shape, dtype=np.float32), device=self.device)
        tshape = (num_nodes,) if slots == 1 else (num_nodes, slots)
        self.time = np.zeros(tshape, dtype=np.float64)
        # Ring-buffer write cursor per node (multi-slot only).
        self._next_slot = np.zeros(num_nodes, dtype=np.int64) if slots > 1 else None

    def tables(self) -> Tuple[np.ndarray, ...]:
        """``(mail, time)`` plus, for a multi-slot ring, the write cursor.

        The cursor is state: a digest or a repair that skipped it would
        miss where the *next* message lands.
        """
        if self._next_slot is None:
            return self.mail.data, self.time
        return self.mail.data, self.time, self._next_slot

    # No caller left under src/ (models read through TBlock.mail), but
    # perf/trace.py resolves it by name: deleting it waits for a benchmark-type PR.
    def get(self, nodes: np.ndarray) -> Tensor:
        """Mail rows for *nodes*: ``(n, dim)`` or ``(n, slots, dim)``. Detached."""
        return Tensor(self.mail.data[nodes], device=self.device)

    def store(self, nodes: np.ndarray, mail: Tensor, times: np.ndarray) -> None:
        """Deliver messages to *nodes*.

        With one slot the message replaces the previous one; with multiple
        slots it is written at the node's ring-buffer cursor.  Cross-device
        writes pay the simulated transfer cost.

        **Duplicate-node guarantee** — *nodes* may repeat within one call
        (``op.coalesce``/``op.src_scatter`` still reduce duplicates on the
        training path, but the streaming ingestion path delivers raw event
        batches).  With one slot, each node keeps the duplicate with the
        greatest delivery time (last event wins; ties on ``(node, time)``
        ordered by the message row's raw bytes — byte-equal rows are
        exactly interchangeable).  With multiple slots, a node's
        duplicates are written to consecutive ring slots in canonical
        ascending (time, row bytes) order.  Either way the stored state is
        deterministic regardless of the input order of the duplicates,
        and rows are copied in, never aliased.
        """
        if isinstance(mail, Tensor) and mail.device is not self.device:
            mail = mail.to(self.device)
        mail_data = mail.data if isinstance(mail, Tensor) else np.asarray(mail)
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        unique = not has_repeats(nodes)
        if self.slots == 1:
            if not unique:
                uniq, winners = last_event_wins(nodes, times, mail_data)
                nodes, mail_data, times = uniq, mail_data[winners], times[winners]
            self.mail.data[nodes] = mail_data
            self.time[nodes] = times
        else:
            if not unique:
                order = canonical_event_order(nodes, times, mail_data)
                nodes, mail_data, times = nodes[order], mail_data[order], times[order]
                # Per-node rank among duplicates: consecutive ring slots.
                starts = np.flatnonzero(
                    np.concatenate(([True], nodes[1:] != nodes[:-1]))
                )
                rank = np.arange(len(nodes), dtype=np.int64)
                rank -= np.repeat(starts, np.diff(np.append(starts, len(nodes))))
            else:
                rank = np.zeros(len(nodes), dtype=np.int64)
            cursors = (self._next_slot[nodes] + rank) % self.slots
            self.mail.data[nodes, cursors] = mail_data
            self.time[nodes, cursors] = times
            self._next_slot[nodes] = (cursors + 1) % self.slots

    def validate(self) -> list:
        """Self-check invariants; returns violations (empty = healthy).

        Checked: finite stored messages and delivery times, and every
        ring-buffer write cursor inside ``[0, slots)``.
        """
        errs = []
        if not np.isfinite(self.mail.data).all():
            errs.append("non-finite entries in stored messages")
        if not np.isfinite(self.time).all():
            errs.append("non-finite delivery times")
        if self._next_slot is not None:
            if self._next_slot.shape != (self.num_nodes,):
                errs.append(
                    f"cursor shape {self._next_slot.shape} != ({self.num_nodes},)"
                )
            elif len(self._next_slot) and (
                self._next_slot.min() < 0 or self._next_slot.max() >= self.slots
            ):
                errs.append(
                    f"ring cursor out of range [0, {self.slots}) "
                    f"(min {self._next_slot.min()}, max {self._next_slot.max()})"
                )
        return errs

    def to(self, device: Union[str, Device]) -> "Mailbox":
        target = get_device(device)
        if target is not self.device:
            self.mail = self.mail.to(target)
            self.device = target
        return self

    def nbytes(self) -> int:
        return self.mail.data.nbytes + self.time.nbytes

    def __repr__(self) -> str:
        return (
            f"Mailbox(nodes={self.num_nodes}, dim={self.dim}, "
            f"slots={self.slots}, device='{self.device}')"
        )
