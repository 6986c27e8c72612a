"""Discrete-time (DTDG) snapshot abstraction — the paper's future work (§7).

The paper targets CTDGs but names discrete-time support as the natural
extension, "in accordance with TGLite's design approach of providing core
data abstractions and composable operators ... perhaps as composable
operators on a graph snapshot abstraction."  This module implements that
direction:

* :class:`TSnapshot` — a static view of the temporal graph at the end of a
  time window, exposing the same block-operator surface (a snapshot can
  seed a :class:`~repro.core.block.TBlock`, so every existing operator —
  sampling, dedup, edge_reduce, aggregate — composes with it unchanged);
* :func:`snapshots` — chop a :class:`~repro.core.graph.TGraph` into evenly
  spaced (or custom-boundary) snapshot windows, as Figure 1(b) depicts;
* :class:`SnapshotLoader` — iterate (snapshot, next-window edges) pairs,
  the training protocol of discrete-time models (learn on history up to
  step k, predict the edges of step k+1).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .batch import TBatch
from .block import TBlock

__all__ = ["TSnapshot", "snapshots", "SnapshotLoader"]


class TSnapshot:
    """A static view of the temporal graph over the window ``[t_start, t_end)``.

    The snapshot does not copy edges; it records the contiguous edge-index
    range (edges are time-sorted in TGraph) and the window boundaries.
    """

    def __init__(self, g, index: int, start_eid: int, stop_eid: int,
                 t_start: float, t_end: float):
        self.g = g
        self.index = index
        self.start_eid = int(start_eid)
        self.stop_eid = int(stop_eid)
        self.t_start = float(t_start)
        self.t_end = float(t_end)

    @property
    def num_edges(self) -> int:
        """Edges whose timestamps fall inside this window."""
        return self.stop_eid - self.start_eid

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, ts)`` of the window's edges."""
        sl = slice(self.start_eid, self.stop_eid)
        return self.g.src[sl], self.g.dst[sl], self.g.ts[sl]

    def nodes(self) -> np.ndarray:
        """Unique nodes active inside this window."""
        src, dst, _ = self.edges()
        return np.unique(np.concatenate([src, dst]))

    def batch(self) -> TBatch:
        """The window's edges as a TBatch (for the standard trainer)."""
        return TBatch(self.g, self.start_eid, self.stop_eid)

    def block(self, ctx, nodes: Optional[np.ndarray] = None) -> TBlock:
        """Seed a TBlock at this snapshot's end time.

        Every destination pair gets the same query time ``t_end``, so
        temporal sampling against the CTDG sees exactly the history
        available at the end of the window — this is the bridge that lets
        all existing CTDG operators run on discrete-time models.
        """
        if nodes is None:
            nodes = self.nodes()
        times = np.full(len(nodes), self.t_end, dtype=np.float64)
        return TBlock(ctx, 0, np.asarray(nodes, dtype=np.int64), times)

    def __repr__(self) -> str:
        return (
            f"TSnapshot(#{self.index}, edges={self.num_edges}, "
            f"window=[{self.t_start:.3g}, {self.t_end:.3g}))"
        )


def snapshots(
    g,
    num_snapshots: Optional[int] = None,
    boundaries: Optional[Sequence[float]] = None,
) -> List[TSnapshot]:
    """Partition *g* into consecutive snapshot windows.

    Args:
        g: the temporal graph.
        num_snapshots: evenly split ``[0, max_time]`` into this many
            windows (mutually exclusive with *boundaries*).
        boundaries: explicit ascending window end-times; the last boundary
            must cover ``g.max_time``.
    """
    if (num_snapshots is None) == (boundaries is None):
        raise ValueError("pass exactly one of num_snapshots / boundaries")
    if boundaries is None:
        if num_snapshots <= 0:
            raise ValueError("num_snapshots must be positive")
        edges = np.linspace(0.0, g.max_time, num_snapshots + 1)[1:]
        # Make sure the final window includes the last edge despite float
        # rounding in linspace.
        edges[-1] = np.nextafter(g.max_time, np.inf)
        boundaries = edges
    else:
        boundaries = np.asarray(boundaries, dtype=np.float64)
        if np.any(np.diff(boundaries) <= 0):
            raise ValueError("boundaries must be strictly ascending")
        if len(g.ts) and boundaries[-1] <= g.max_time:
            raise ValueError("last boundary must exceed max edge time")

    result: List[TSnapshot] = []
    prev_t = 0.0
    prev_eid = 0
    for i, t_end in enumerate(boundaries):
        stop_eid = int(np.searchsorted(g.ts, t_end, side="left"))
        result.append(TSnapshot(g, i, prev_eid, stop_eid, prev_t, float(t_end)))
        prev_eid = stop_eid
        prev_t = float(t_end)
    return result


class SnapshotLoader:
    """Iterate (history snapshot, next-window target batch) pairs.

    The standard discrete-time training protocol: at step ``k`` the model
    reads everything up to the end of snapshot ``k`` and predicts the edges
    of snapshot ``k+1``.
    """

    def __init__(self, g, num_snapshots: int):
        self._snaps = snapshots(g, num_snapshots=num_snapshots)

    def __len__(self) -> int:
        return max(0, len(self._snaps) - 1)

    @property
    def snapshots(self) -> List[TSnapshot]:
        return self._snaps

    def __iter__(self) -> Iterator[Tuple[TSnapshot, TBatch]]:
        for history, target in zip(self._snaps[:-1], self._snaps[1:]):
            yield history, target.batch()
