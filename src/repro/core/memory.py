"""Node memory storage for memory-based TGNN models (TGN/JODIE/APAN).

``Memory`` holds one vector per node plus the timestamp of its last update
(Eq. 11 in the paper: ``s_i(t)``).  It is deliberately a plain storage
component — the *update function* (GRU/RNN) lives in the models — but it
centralizes device placement so TGLite can preload/cache it like any other
graph data.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor
from ..tensor.device import Device, get_device
from .kernels.dedup import has_repeats, last_event_wins
from .state import TableState

__all__ = ["Memory"]


class Memory(TableState):
    """Per-node memory vectors and last-updated timestamps.

    Args:
        num_nodes: number of nodes.
        dim: memory vector width.
        device: where the backing storage lives ('cpu' keeps it host-side
            for the CPU-to-GPU experiments).
    """

    TABLE_KEYS = ("memory/data", "memory/time")

    def __init__(self, num_nodes: int, dim: int, device: Union[str, Device, None] = None):
        self.num_nodes = num_nodes
        self.dim = dim
        self.device = get_device(device)
        self.data = Tensor(np.zeros((num_nodes, dim), dtype=np.float32), device=self.device)
        self.time = np.zeros(num_nodes, dtype=np.float64)

    def tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(data, time)`` — the live vectors and last-update times."""
        return self.data.data, self.time

    # No caller left under src/ (models read through TBlock.mem_data), but
    # perf/trace.py resolves it by name: deleting it waits for a benchmark-type PR.
    def get(self, nodes: np.ndarray) -> Tensor:
        """Memory rows for *nodes* (detached: gradients never flow into storage)."""
        return Tensor(self.data.data[nodes], device=self.device)

    def update(self, nodes: np.ndarray, values: Tensor, times: np.ndarray) -> None:
        """Overwrite memory rows and last-update times for *nodes*.

        Values are detached before storage: the training scheme gets
        gradients via the *current* batch's loss, never by backpropagating
        through persistent state (which would leak across batches).
        Cross-device writes pay the simulated transfer cost.

        **Duplicate-node guarantee** — *nodes* may repeat within one call;
        each node's stored row is the duplicate with the greatest update
        time (last event wins), with ties on ``(node, time)`` ordered by
        the value row's raw bytes (byte-equal rows are exactly
        interchangeable).  The outcome is deterministic regardless of the
        input order of the duplicates, so replaying a permuted event
        batch commits bit-identical memory.  Rows are copied in: the
        caller's arrays are never aliased by the store.
        """
        if isinstance(values, Tensor) and values.device is not self.device:
            values = values.to(self.device)
        values_data = values.data if isinstance(values, Tensor) else np.asarray(values)
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        if has_repeats(nodes):
            uniq, winners = last_event_wins(nodes, times, values_data)
            nodes, values_data, times = uniq, values_data[winners], times[winners]
        self.data.data[nodes] = values_data
        self.time[nodes] = times

    def validate(self, max_time: Optional[float] = None) -> list:
        """Self-check invariants; returns violations (empty = healthy).

        Checked: finite memory vectors, finite non-negative last-update
        times, shapes matching the node count, and (when *max_time* is
        given) no update time beyond the stream horizon — update times
        are monotone per node under the streaming protocol, so the
        horizon bound is the checkable residue of that invariant.
        """
        errs = []
        if self.data.data.shape != (self.num_nodes, self.dim):
            errs.append(
                f"data shape {self.data.data.shape} != ({self.num_nodes}, {self.dim})"
            )
        if not np.isfinite(self.data.data).all():
            errs.append("non-finite entries in node memory vectors")
        if self.time.shape != (self.num_nodes,):
            errs.append(f"time shape {self.time.shape} != ({self.num_nodes},)")
        if not np.isfinite(self.time).all():
            errs.append("non-finite last-update times")
        elif len(self.time):
            if self.time.min() < 0:
                errs.append("negative last-update time")
            if max_time is not None and max_time > 0 and self.time.max() > max_time:
                errs.append(
                    f"last-update time {self.time.max():g} beyond stream "
                    f"horizon {max_time:g}"
                )
        return errs

    def to(self, device: Union[str, Device]) -> "Memory":
        """Move backing storage to *device* (pays simulated transfer cost)."""
        target = get_device(device)
        if target is not self.device:
            self.data = self.data.to(target)
            self.device = target
        return self

    def nbytes(self) -> int:
        return self.data.data.nbytes + self.time.nbytes

    def __repr__(self) -> str:
        return f"Memory(nodes={self.num_nodes}, dim={self.dim}, device='{self.device}')"
