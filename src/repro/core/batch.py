"""TBatch: one batch of temporal events as a struct of arrays.

Rather than haphazardly passing several node/timestamp arrays around, a
TBatch holds a batch's ``(eids, src, dst, ts)`` arrays, plus optional
per-event payload rows and negative samples, and materializes derived
arrays (node lists, head blocks, adjacency blocks) only when asked.  The
one class serves every consumer: a training batch is a slice of a
:class:`~repro.core.graph.TGraph` (:meth:`TBatch.range`, which keeps the
graph as ``g``), and a served request is the serving path's wire format
(``g`` is None).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence

import numpy as np

from .block import TBlock

if TYPE_CHECKING:  # pragma: no cover
    from .context import TContext
    from .graph import TGraph

__all__ = ["TBatch", "iter_batches"]


class TBatch:
    """A batch of temporal events in struct-of-arrays form.

    Args:
        eids: int64 event ids: edge indices into ``g`` for a graph batch,
            the idempotency key of a served event.
        src: int64 source node ids.
        dst: int64 destination node ids.
        ts: float64 event timestamps.
        payload: optional float32 ``(n, d)`` per-event feature rows (a
            served event's edge features / raw message content); None
            means payload-free events.  A graph batch's edge features are
            read from ``g.efeat`` by event id instead.
        g: the temporal graph the events are edges of (None for a served
            request).
        neg_nodes: optional array of negative-sample node ids, one per
            event, attached by the training loop for link prediction.
    """

    def __init__(self, eids, src, dst, ts, payload=None, *,
                 g: Optional["TGraph"] = None, neg_nodes: Optional[np.ndarray] = None):
        self.eids = np.asarray(eids, dtype=np.int64)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.ts = np.asarray(ts, dtype=np.float64)
        n = len(self.eids)
        if not (len(self.src) == len(self.dst) == len(self.ts) == n):
            raise ValueError("event arrays must have equal lengths")
        if payload is not None:
            payload = np.asarray(payload, dtype=np.float32)
            if payload.ndim != 2:
                raise ValueError(f"payload must be 2-D (events, dim), got shape {payload.shape}")
            if len(payload) != n:
                raise ValueError(f"payload rows {len(payload)} != events {n}")
        self.payload = payload
        self.g = g
        self.neg_nodes = neg_nodes

    @classmethod
    def range(cls, g: "TGraph", lo: int, hi: int,
              neg_nodes: Optional[np.ndarray] = None) -> "TBatch":
        """The chronologically contiguous edges ``[lo, hi)`` of *g*."""
        if not 0 <= lo <= hi <= g.num_edges:
            raise ValueError(f"invalid batch range [{lo}, {hi}) for {g.num_edges} edges")
        return cls(np.arange(lo, hi, dtype=np.int64), g.src[lo:hi], g.dst[lo:hi],
                   g.ts[lo:hi], g=g, neg_nodes=neg_nodes)

    @classmethod
    def empty(cls) -> "TBatch":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.eids)

    # ---- selection and order ------------------------------------------------------

    def take(self, index: np.ndarray) -> "TBatch":
        """A new batch holding the events selected by *index* (mask or
        positions); payload rows and negatives follow their events."""
        return TBatch(
            self.eids[index], self.src[index], self.dst[index], self.ts[index],
            None if self.payload is None else self.payload[index],
            g=self.g,
            neg_nodes=None if self.neg_nodes is None else self.neg_nodes[index],
        )

    def sorted_by_time(self) -> "TBatch":
        """Events in canonical ``(ts, eid)`` order.

        The tie-break on event id makes the order a total one, so any
        bounded shuffle of the same events sorts back to an identical
        sequence — the property the poisoned-stream equivalence guarantee
        rests on.
        """
        return self.take(np.lexsort((self.eids, self.ts)))

    @staticmethod
    def concat(batches: Sequence["TBatch"]) -> "TBatch":
        """The events of *batches*, in order.

        The non-empty batches must agree on ``g``, on the payload's row
        shape (or all carry none) and on carrying negatives; a mix raises
        ValueError rather than dropping rows.
        """
        batches = [b for b in batches if len(b)]
        if not batches:
            return TBatch.empty()
        first = batches[0]
        payload, neg_nodes = first.payload, first.neg_nodes
        for b in batches[1:]:
            if (b.g is not first.g or (b.payload is None) != (payload is None)
                    or (b.neg_nodes is None) != (neg_nodes is None)):
                raise ValueError("cannot concat batches that differ in graph, "
                                 "in carrying a payload or in carrying negatives")
        if payload is not None:
            try:
                payload = np.concatenate([b.payload for b in batches])
            except ValueError:
                raise ValueError("cannot concat payloads of different widths") from None
        if neg_nodes is not None:
            neg_nodes = np.concatenate([b.neg_nodes for b in batches])
        return TBatch(
            np.concatenate([b.eids for b in batches]),
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            np.concatenate([b.ts for b in batches]),
            payload, g=first.g, neg_nodes=neg_nodes,
        )

    # ---- durable-log form ---------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat array dict for durable-log serialization (see ``from_arrays``)."""
        arrays = {"eids": self.eids, "src": self.src, "dst": self.dst, "ts": self.ts}
        if self.payload is not None:
            arrays["payload"] = self.payload
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "TBatch":
        """Inverse of :meth:`to_arrays` (used by durable-log recovery)."""
        return cls(arrays["eids"], arrays["src"], arrays["dst"], arrays["ts"],
                   arrays.get("payload"))

    # ---- derived node lists -------------------------------------------------------

    def nodes(self) -> np.ndarray:
        """Source nodes, destination nodes, then negatives (if attached)."""
        parts = [self.src, self.dst]
        if self.neg_nodes is not None:
            parts.append(self.neg_nodes)
        return np.concatenate(parts)

    def times(self) -> np.ndarray:
        """Timestamps aligned with :meth:`nodes` (the batch times, tiled)."""
        reps = 3 if self.neg_nodes is not None else 2
        return np.tile(self.ts, reps)

    # ---- block constructors ------------------------------------------------------------

    def block(self, ctx: "TContext") -> TBlock:
        """Head TBlock whose destinations are the batch's target node-time
        pairs: sources, destinations, and negatives, all at the batch's
        edge timestamps.  This is what embedding computation starts from.
        """
        return TBlock(ctx, 0, self.nodes(), self.times())

    def block_adj(self, ctx: "TContext") -> TBlock:
        """A block capturing the batch edges themselves as adjacency.

        Destinations are the batch's endpoint nodes (with duplicates — use
        ``op.coalesce`` to reduce); each batch edge contributes two source
        rows, one per direction, carrying the edge id and timestamp.  Used
        by memory-based models to build mailbox messages (e.g. Listing 4's
        ``save_raw_msgs``).
        """
        endpoints = np.concatenate([self.src, self.dst])
        neighbors = np.concatenate([self.dst, self.src])
        eids = np.concatenate([self.eids, self.eids])
        etimes = np.concatenate([self.ts, self.ts])
        blk = TBlock(ctx, 0, endpoints, etimes)
        blk.set_nbrs(neighbors, eids, etimes.copy(), np.arange(len(endpoints), dtype=np.int64))
        return blk

    def __repr__(self) -> str:
        span = f", t=[{self.ts.min():.6g}, {self.ts.max():.6g}]" if len(self) else ""
        return f"TBatch(n={len(self)}{span})"


def iter_batches(
    g: "TGraph",
    batch_size: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[TBatch]:
    """Yield chronologically contiguous :class:`TBatch` slices of *g*.

    Args:
        g: the temporal graph (edges already time-sorted).
        batch_size: edges per batch (the final batch may be smaller).
        start: first edge index to cover.
        stop: one past the last edge index (defaults to all edges).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    stop = g.num_edges if stop is None else stop
    for lo in range(start, stop, batch_size):
        yield TBatch.range(g, lo, min(lo + batch_size, stop))
