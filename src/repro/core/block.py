"""TBlock: the temporal block, TGLite's central data abstraction.

A TBlock captures the 1-hop message-flow dependencies between target
(destination) node-time pairs and their temporally sampled (source)
neighbors.  Three design choices distinguish it from DGL-style MFGs (§3.2
of the paper):

1. **Doubly-linked list** — blocks chain through ``prev``/``next`` so that
   multi-hop operators (``aggregate``, ``propagate``) can traverse the hop
   structure and pass data between layers without user bookkeeping.
   ``prev`` is a weak link, so dropping the head frees a step's blocks
   (and the autograd graph they reach) without the cycle collector.
2. **Optional neighbor information** — a block is created with only its
   destination node-time pairs; optimizations like ``dedup``/``cache``
   shrink the destination set *before* sampling fills in the sources.
3. **Hooks** — operators register post-processing callables on the block;
   the runtime (``aggregate``) invokes them after the block's computation,
   e.g. to invert deduplication or merge cached embeddings.

Blocks are also the one place graph-level tables are indexed: every read
of node/edge features, memory or mail goes through :meth:`TBlock._gather`
(pinned or pageable, then cached so repeated access does not pay
data-movement costs twice) and every computed row on its way back to a
table through :meth:`TBlock.write_back`.  Row-keyed data (``dstfeat`` /
``srcfeat`` / ``efeat`` / ``nfeat``) comes back one row per block row;
node-keyed state (``uniq_nfeat`` / ``mem_data`` / ``mail`` / ``mem_ts`` /
``mail_ts``) one row per unique node, aligned with
:meth:`TBlock.uniq_nodes`.  The keyed accessors ``uniq_srcfeat`` /
``uniq_efeat`` return the source-side features once per unique source node
/ edge together with each row's index into them — the ``(rows, index)``
form :func:`~repro.core.op.edge_attention` projects without expanding.

``srcfeat`` / ``efeat`` / ``nfeat`` have no caller left under ``src/``:
``perf/trace.py`` resolves them by name, so deleting them waits for a
benchmark-type PR.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover
    from .context import TContext
    from .graph import TGraph

__all__ = ["TBlock"]

Hook = Callable[["TBlock", Tensor], Tensor]


class TBlock:
    """One hop of temporal message flow.

    Args:
        ctx: runtime context (placement + scratch space).
        layer_id: distance from the head block (0 for the head).
        dstnodes: int64 array of destination node ids.
        dsttimes: float64 array of the time at which each destination
            embedding is requested (the ``<i, t>`` target pairs).
        prev: predecessor block in the chain, if any (held weakly; it
            owns this block through ``next``).
    """

    def __init__(
        self,
        ctx: "TContext",
        layer_id: int,
        dstnodes: np.ndarray,
        dsttimes: np.ndarray,
        prev: Optional["TBlock"] = None,
    ):
        self.ctx = ctx
        self.layer_id = layer_id
        self.dstnodes = np.asarray(dstnodes, dtype=np.int64)
        self.dsttimes = np.asarray(dsttimes, dtype=np.float64)
        if len(self.dstnodes) != len(self.dsttimes):
            raise ValueError("dstnodes and dsttimes must have equal length")

        self.srcnodes: Optional[np.ndarray] = None
        self.dstindex: Optional[np.ndarray] = None
        self.eids: Optional[np.ndarray] = None
        self.etimes: Optional[np.ndarray] = None

        self._prev = None if prev is None else weakref.ref(prev)
        self.next: Optional["TBlock"] = None
        if prev is not None:
            prev.next = self

        self.dstdata: Dict[str, Tensor] = {}
        self.srcdata: Dict[str, Tensor] = {}
        self.edata: Dict[str, Tensor] = {}

        self._hooks: List[Hook] = []
        self._cache: Dict[str, Tensor] = {}
        self._uniq_src: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._uniq_nodes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._uniq_eids: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ---- structure ---------------------------------------------------------------

    @property
    def prev(self) -> Optional["TBlock"]:
        """The predecessor block (``None`` for a head, or once it is freed)."""
        return None if self._prev is None else self._prev()

    @property
    def g(self) -> "TGraph":
        """The temporal graph this block draws data from."""
        return self.ctx.graph

    @property
    def num_dst(self) -> int:
        return len(self.dstnodes)

    @property
    def num_src(self) -> int:
        return len(self.srcnodes) if self.srcnodes is not None else 0

    @property
    def num_edges(self) -> int:
        return len(self.eids) if self.eids is not None else 0

    @property
    def has_nbrs(self) -> bool:
        """Whether neighbor (source) information has been filled in."""
        return self.srcnodes is not None

    def tail(self) -> "TBlock":
        """Follow ``next`` links to the last block in the chain."""
        blk = self
        while blk.next is not None:
            blk = blk.next
        return blk

    def head(self) -> "TBlock":
        """Follow ``prev`` links to the first block in the chain."""
        blk = self
        while blk.prev is not None:
            blk = blk.prev
        return blk

    def next_block(self, include_dst: bool = True) -> "TBlock":
        """Create and link the successor block for the next hop.

        The successor's destination set consists of this block's
        destinations (whose lower-layer embeddings the attention query
        needs) followed by its sampled sources at their edge timestamps.

        Args:
            include_dst: whether to carry this block's destinations into
                the successor (models that only need neighbor embeddings
                can drop them).
        """
        if not self.has_nbrs:
            raise RuntimeError("next_block requires sampled neighbors; call sample() first")
        if include_dst:
            nodes = np.concatenate([self.dstnodes, self.srcnodes])
            times = np.concatenate([self.dsttimes, self.etimes])
        else:
            nodes, times = self.srcnodes.copy(), self.etimes.copy()
        return TBlock(self.ctx, self.layer_id + 1, nodes, times, prev=self)

    # ---- mutation by operators ----------------------------------------------------------

    def set_dst(self, dstnodes: np.ndarray, dsttimes: np.ndarray) -> None:
        """Replace the destination set (used by dedup/cache before sampling).

        Invalid once neighbors exist, since source rows index into dst.
        """
        if self.has_nbrs:
            raise RuntimeError("cannot change destinations after sampling")
        self.dstnodes = np.asarray(dstnodes, dtype=np.int64)
        self.dsttimes = np.asarray(dsttimes, dtype=np.float64)
        self._uniq_nodes = None
        self._invalidate("dstfeat", "allfeat", "uniq_nfeat", "mem", "mail")
        self.dstdata.clear()

    def set_nbrs(
        self,
        srcnodes: np.ndarray,
        eids: np.ndarray,
        etimes: np.ndarray,
        dstindex: np.ndarray,
    ) -> None:
        """Install sampled neighbor rows (called by samplers/coalesce).

        Args:
            srcnodes: neighbor node per sampled edge row.
            eids: edge id per row (indexes the graph's edge features).
            etimes: edge timestamp per row.
            dstindex: destination row each source row belongs to.
        """
        n = len(srcnodes)
        if not (len(eids) == len(etimes) == len(dstindex) == n):
            raise ValueError("neighbor arrays must have equal length")
        self.srcnodes = np.asarray(srcnodes, dtype=np.int64)
        self.eids = np.asarray(eids, dtype=np.int64)
        self.etimes = np.asarray(etimes, dtype=np.float64)
        self.dstindex = np.asarray(dstindex, dtype=np.int64)
        self._uniq_src = self._uniq_nodes = self._uniq_eids = None
        self._invalidate("srcfeat", "efeat", "allfeat", "uniq_nfeat", "mem", "mail",
                         "uniq_srcfeat", "uniq_efeat")
        self.srcdata.clear()
        self.edata.clear()

    # ---- hooks ----------------------------------------------------------------------------

    def register_hook(self, hook: Hook) -> None:
        """Register a post-processing hook run after this block's computation.

        Hooks receive ``(block, output)`` and return the transformed output.
        They run in LIFO order, so an operator applied *first* (whose
        transformation must be undone *last*) registers first.
        """
        self._hooks.append(hook)

    @property
    def hooks(self) -> Tuple[Hook, ...]:
        return tuple(self._hooks)

    def run_hooks(self, output: Tensor) -> Tensor:
        """Apply registered hooks (LIFO) to *output*; clears the hook list."""
        for hook in reversed(self._hooks):
            output = hook(self, output)
        self._hooks.clear()
        return output

    # ---- derived index info -----------------------------------------------------------------

    def uniq_src(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique source node ids and the inverse mapping of each src row."""
        if not self.has_nbrs:
            raise RuntimeError("block has no neighbors")
        if self._uniq_src is None:
            uniq, inverse = np.unique(self.srcnodes, return_inverse=True)
            self._uniq_src = (uniq, inverse.astype(np.int64))
        return self._uniq_src

    def uniq_eids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique sampled edge ids and the inverse mapping of each src row."""
        if not self.has_nbrs:
            raise RuntimeError("block has no neighbors")
        if self._uniq_eids is None:
            uniq, inverse = np.unique(self.eids, return_inverse=True)
            self._uniq_eids = (uniq, inverse.astype(np.int64))
        return self._uniq_eids

    def uniq_nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted unique ids of :meth:`allnodes` and each row's index into them."""
        if self._uniq_nodes is None:
            uniq, inverse = np.unique(self.allnodes(), return_inverse=True)
            self._uniq_nodes = (uniq, inverse.astype(np.int64))
        return self._uniq_nodes

    def allnodes(self) -> np.ndarray:
        """Destination node ids followed by source node ids."""
        if self.has_nbrs:
            return np.concatenate([self.dstnodes, self.srcnodes])
        return self.dstnodes

    def alltimes(self) -> np.ndarray:
        """Times aligned with :meth:`allnodes` (dst request times, src edge times)."""
        if self.has_nbrs:
            return np.concatenate([self.dsttimes, self.etimes])
        return self.dsttimes

    def time_deltas(self) -> np.ndarray:
        """Per-source-row time delta ``t_dst - t_edge`` (for the time encoder)."""
        if not self.has_nbrs:
            raise RuntimeError("block has no neighbors")
        return self.dsttimes[self.dstindex] - self.etimes

    # ---- cached data access ------------------------------------------------------------------

    def _invalidate(self, *keys: str) -> None:
        for key in keys:
            self._cache.pop(key, None)

    def clear_cache(self) -> None:
        """Flush cached feature/memory tensors; they reload lazily when needed."""
        self._cache.clear()
        self._uniq_src = self._uniq_nodes = self._uniq_eids = None

    def _gather(self, store: Tensor, idx: np.ndarray, pin: bool = False) -> Tensor:
        """Gather rows from a (possibly host-resident) store onto ctx.device."""
        rows = store.data[idx]
        if pin and store.device.is_cpu and self.ctx.device.is_cuda:
            staged = self.ctx.stage_pinned(rows)
            return staged.to(self.ctx.device)
        gathered = Tensor(rows, device=store.device)
        return gathered.to(self.ctx.device)

    def write_back(self, values: Tensor, device, pin: bool = False) -> Tensor:
        """The gather's inverse: computed rows moved to a table's *device*.

        With *pin* a device-to-host write-back is charged at the pinned
        rate, the same policy :meth:`_gather` applies on the way in.
        """
        return values.to(device, via_pinned=pin)

    def _cached(self, key: str, loader: Callable[[], Tensor]) -> Tensor:
        value = self._cache.get(key)
        if value is None:
            value = loader()
            self._cache[key] = value
        return value

    def dstfeat(self, pin: bool = False) -> Tensor:
        """Node features of the destination nodes (cached).

        If a combined :meth:`nfeat` gather is already cached (e.g. by
        ``op.preload``), this slices it instead of re-fetching.
        """
        if self.g.nfeat is None:
            raise RuntimeError("graph has no node features")
        allfeat = self._cache.get("allfeat")
        if allfeat is not None:
            return allfeat[: self.num_dst]
        return self._cached("dstfeat", lambda: self._gather(self.g.nfeat, self.dstnodes, pin))

    def srcfeat(self, pin: bool = False) -> Tensor:
        """Node features of the source (neighbor) rows (cached).

        Reuses a cached combined :meth:`nfeat` gather when available.
        """
        if self.g.nfeat is None:
            raise RuntimeError("graph has no node features")
        if not self.has_nbrs:
            raise RuntimeError("block has no neighbors")
        allfeat = self._cache.get("allfeat")
        if allfeat is not None:
            return allfeat[self.num_dst :]
        return self._cached("srcfeat", lambda: self._gather(self.g.nfeat, self.srcnodes, pin))

    def efeat(self, pin: bool = False) -> Tensor:
        """Edge features of the sampled edge rows (cached)."""
        if self.g.efeat is None:
            raise RuntimeError("graph has no edge features")
        if not self.has_nbrs:
            raise RuntimeError("block has no neighbors")
        return self._cached("efeat", lambda: self._gather(self.g.efeat, self.eids, pin))

    def uniq_srcfeat(self, pin: bool = False) -> Tuple[Tensor, np.ndarray]:
        """Node features of :meth:`uniq_src` (cached) and each src row's index into them."""
        if self.g.nfeat is None:
            raise RuntimeError("graph has no node features")
        uniq, inverse = self.uniq_src()
        return self._cached("uniq_srcfeat", lambda: self._gather(self.g.nfeat, uniq, pin)), inverse

    def uniq_efeat(self, pin: bool = False) -> Tuple[Tensor, np.ndarray]:
        """Edge features of :meth:`uniq_eids` (cached) and each src row's index into them."""
        if self.g.efeat is None:
            raise RuntimeError("graph has no edge features")
        uniq, inverse = self.uniq_eids()
        return self._cached("uniq_efeat", lambda: self._gather(self.g.efeat, uniq, pin)), inverse

    def nfeat(self, pin: bool = False) -> Tensor:
        """Node features for :meth:`allnodes` (dst rows then src rows)."""
        if self.g.nfeat is None:
            raise RuntimeError("graph has no node features")
        return self._cached("allfeat", lambda: self._gather(self.g.nfeat, self.allnodes(), pin))

    def uniq_nfeat(self, pin: bool = False) -> Tensor:
        """Node features of :meth:`uniq_nodes` (cached), aligned with memory and mail."""
        if self.g.nfeat is None:
            raise RuntimeError("graph has no node features")
        return self._cached("uniq_nfeat", lambda: self._gather(self.g.nfeat, self.uniq_nodes()[0], pin))

    def mem_data(self, pin: bool = False) -> Tensor:
        """Memory vectors of :meth:`uniq_nodes` (cached, detached)."""
        if self.g.mem is None:
            raise RuntimeError("graph has no memory component")
        return self._cached("mem", lambda: self._gather(self.g.mem.data, self.uniq_nodes()[0], pin))

    def mem_ts(self) -> np.ndarray:
        """Last-update timestamps of memory for :meth:`uniq_nodes` (read live, never cached)."""
        if self.g.mem is None:
            raise RuntimeError("graph has no memory component")
        return self.g.mem.time[self.uniq_nodes()[0]]

    def mail(self, pin: bool = False) -> Tensor:
        """Mailbox messages of :meth:`uniq_nodes` (cached, detached)."""
        if self.g.mailbox is None:
            raise RuntimeError("graph has no mailbox component")
        return self._cached("mail", lambda: self._gather(self.g.mailbox.mail, self.uniq_nodes()[0], pin))

    def mail_ts(self) -> np.ndarray:
        """Mailbox delivery timestamps for :meth:`uniq_nodes` (read live, never cached)."""
        if self.g.mailbox is None:
            raise RuntimeError("graph has no mailbox component")
        return self.g.mailbox.time[self.uniq_nodes()[0]]

    def __repr__(self) -> str:
        nbrs = self.num_src if self.has_nbrs else "unsampled"
        return f"TBlock(layer={self.layer_id}, dst={self.num_dst}, src={nbrs})"
