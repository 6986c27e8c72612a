"""TGraph: storage and management of a continuous-time temporal graph.

The central hub for all data related to a CTDG dataset.  Edges are kept in
COO form sorted by timestamp (the common chronological-iteration case is a
slice), and a temporal CSR adjacency is built lazily the first time a model
needs neighborhood sampling.  Node/edge feature tensors and the optional
:class:`~repro.core.memory.Memory` / :class:`~repro.core.mailbox.Mailbox`
components also hang off the graph, giving users one place to access
everything (and giving TGLite one place to optimize data movement).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor
from .mailbox import Mailbox
from .memory import Memory

__all__ = ["TGraph", "TemporalCSR"]


class TemporalCSR:
    """Compressed sparse adjacency with per-node time-sorted neighbor lists.

    For each node ``v``, ``indices[indptr[v]:indptr[v+1]]`` are the
    neighbors of ``v`` with matching ``eids`` and ``etimes``, sorted by
    ascending edge timestamp so that a binary search finds the temporal
    cutoff for sampling.
    """

    __slots__ = ("indptr", "indices", "eids", "etimes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, eids: np.ndarray, etimes: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        self.eids = eids
        self.etimes = etimes

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1


def _build_temporal_csr(
    src: np.ndarray,
    dst: np.ndarray,
    ts: np.ndarray,
    num_nodes: int,
) -> TemporalCSR:
    eids = np.arange(len(src), dtype=np.int64)
    # undirected, matching TGL: both endpoints of an edge see each other
    endpoints = np.concatenate([src, dst])
    neighbors = np.concatenate([dst, src])
    all_eids = np.concatenate([eids, eids])
    all_ts = np.concatenate([ts, ts])
    # Sort by (endpoint, time): grouping per node with ascending timestamps.
    order = np.lexsort((all_ts, endpoints))
    endpoints = endpoints[order]
    neighbors = neighbors[order]
    all_eids = all_eids[order]
    all_ts = all_ts[order]
    counts = np.bincount(endpoints, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return TemporalCSR(indptr, neighbors.astype(np.int64), all_eids, all_ts)


def _check_edge_arrays(src: np.ndarray, dst: np.ndarray, ts: np.ndarray) -> None:
    """Reject malformed edge arrays with errors naming the offending index.

    Production event streams carry NaN/Inf timestamps, negative times from
    clock bugs, and negative node ids from failed joins; letting any of
    them into the sorted COO storage corrupts the temporal CSR and every
    downstream invariant, so they are rejected at the door.
    """
    if len(ts):
        finite = np.isfinite(ts)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite edge timestamp {ts[i]} at index {i}")
        if ts.min() < 0:
            i = int(np.flatnonzero(ts < 0)[0])
            raise ValueError(f"negative edge timestamp {ts[i]} at index {i}")
    for name, arr in (("src", src), ("dst", dst)):
        if len(arr) and arr.min() < 0:
            i = int(np.flatnonzero(arr < 0)[0])
            raise ValueError(f"negative {name} node id {arr[i]} at index {i}")


class TGraph:
    """A continuous-time temporal graph.

    Args:
        src: int array of source node ids, one per temporal edge.
        dst: int array of destination node ids.
        ts: float array of edge timestamps.  Edges are re-sorted
            chronologically (stably) on construction.
        num_nodes: total node count; inferred from the edge list if omitted.

    The sampling adjacency treats edges as undirected (both endpoints see
    each other), matching TGL.
    """

    def __init__(
        self,
        src,
        dst,
        ts,
        num_nodes: Optional[int] = None,
    ):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        if not (len(src) == len(dst) == len(ts)):
            raise ValueError("src, dst, ts must have equal lengths")
        _check_edge_arrays(src, dst, ts)
        order = np.argsort(ts, kind="stable")
        if not np.array_equal(order, np.arange(len(ts))):
            src, dst, ts = src[order], dst[order], ts[order]
        self.src = src
        self.dst = dst
        self.ts = ts
        inferred = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if len(src) else 0
        self.num_nodes = int(num_nodes) if num_nodes is not None else inferred
        if self.num_nodes < inferred:
            raise ValueError(f"num_nodes={num_nodes} smaller than max node id {inferred - 1}")

        self._csr: Optional[TemporalCSR] = None
        self._nfeat: Optional[Tensor] = None
        self._efeat: Optional[Tensor] = None
        self.mem: Optional[Memory] = None
        self.mailbox: Optional[Mailbox] = None
        self.ctx = None  # back-reference set by TContext

    # ---- basic stats ----------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def max_time(self) -> float:
        return float(self.ts[-1]) if len(self.ts) else 0.0

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chronologically-sorted COO edge arrays ``(src, dst, ts)``."""
        return self.src, self.dst, self.ts

    def __repr__(self) -> str:
        return (
            f"TGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"max_t={self.max_time:.3g})"
        )

    # ---- adjacency -------------------------------------------------------------------

    def csr(self) -> TemporalCSR:
        """The temporal CSR adjacency, built lazily on first use."""
        if self._csr is None:
            self._csr = _build_temporal_csr(
                self.src, self.dst, self.ts, self.num_nodes
            )
        return self._csr

    # ---- feature storage ----------------------------------------------------------------

    @property
    def nfeat(self) -> Optional[Tensor]:
        return self._nfeat

    def set_nfeat(self, feat: Union[Tensor, np.ndarray]) -> None:
        """Attach node features (shape ``(num_nodes, d_v)``)."""
        feat = feat if isinstance(feat, Tensor) else Tensor(feat)
        if feat.shape[0] != self.num_nodes:
            raise ValueError(f"nfeat rows {feat.shape[0]} != num_nodes {self.num_nodes}")
        self._nfeat = feat

    @property
    def efeat(self) -> Optional[Tensor]:
        return self._efeat

    def set_efeat(self, feat: Union[Tensor, np.ndarray]) -> None:
        """Attach edge features (shape ``(num_edges, d_e)``), chronologically ordered."""
        feat = feat if isinstance(feat, Tensor) else Tensor(feat)
        if feat.shape[0] != self.num_edges:
            raise ValueError(f"efeat rows {feat.shape[0]} != num_edges {self.num_edges}")
        self._efeat = feat

    # ---- memory / mailbox ------------------------------------------------------------------

    def set_memory(self, dim: int, device=None) -> Memory:
        """Attach node memory storage of width *dim*."""
        self.mem = Memory(self.num_nodes, dim, device=device)
        return self.mem

    def set_mailbox(self, dim: int, slots: int = 1, device=None) -> Mailbox:
        """Attach a mailbox with *slots* message slots of width *dim* per node."""
        self.mailbox = Mailbox(self.num_nodes, dim, slots=slots, device=device)
        return self.mailbox

    def reset_state(self) -> None:
        """Zero memory and mailbox (between epochs / before inference replay)."""
        if self.mem is not None:
            self.mem.reset()
        if self.mailbox is not None:
            self.mailbox.reset()
