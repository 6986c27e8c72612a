"""MFG: the DGL-style message-flow graph block used by the TGL baseline.

Faithful to the structural properties the paper contrasts TBlocks against
(§3.2):

* **standalone** — no links between hops; the trainer passes a list of
  MFGs around and manages inter-layer data flow itself;
* **src+dst required upfront** — an MFG only exists *after* sampling, so
  destination-set optimizations (dedup/cache) have no place to attach;
* **device-resident** — all data associated with the MFG (features, edge
  features, memory, mail) is moved to the compute device eagerly at
  construction time over *pageable* transfers, which drives TGL's higher
  data-movement volume and device-memory footprint;
* **fused time deltas** — TGL computes ``t_dst - t_edge`` during sampling
  while it still holds the timestamps (the reason its time-encoding stage
  is slightly cheaper than TGLite's, §5.2.3);
* **string-keyed data dicts** — ``srcdata``/``dstdata`` mappings the model
  mutates directly (the error-prone bit Listing 3 illustrates).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..tensor import Tensor
from ..tensor.device import Device

__all__ = ["MFG"]


class MFG:
    """One hop of message flow for the TGL baseline (sparse DGL block).

    Args:
        device: compute device all loaded data is moved to.
        dstnodes: ``(n,)`` destination node ids (the hop's seeds).
        dsttimes: ``(n,)`` seed query times.
        srcnodes: ``(m,)`` sampled neighbor node ids (flat rows).
        eids: ``(m,)`` edge id per neighbor row.
        etimes: ``(m,)`` edge timestamp per neighbor row.
        dstindex: ``(m,)`` destination row each neighbor row belongs to.
    """

    def __init__(
        self,
        device: Device,
        dstnodes: np.ndarray,
        dsttimes: np.ndarray,
        srcnodes: np.ndarray,
        eids: np.ndarray,
        etimes: np.ndarray,
        dstindex: np.ndarray,
    ):
        self.device = device
        self.dstnodes = np.asarray(dstnodes, dtype=np.int64)
        self.dsttimes = np.asarray(dsttimes, dtype=np.float64)
        self.srcnodes = np.asarray(srcnodes, dtype=np.int64)
        self.eids = np.asarray(eids, dtype=np.int64)
        self.etimes = np.asarray(etimes, dtype=np.float64)
        self.dstindex = np.asarray(dstindex, dtype=np.int64)
        # Fused delta computation (done during sampling in real TGL).
        self.deltas = self.dsttimes[self.dstindex] - self.etimes

        self.srcdata: Dict[str, Tensor] = {}
        self.dstdata: Dict[str, Tensor] = {}
        self.edata: Dict[str, Tensor] = {}

    @property
    def num_dst(self) -> int:
        return len(self.dstnodes)

    @property
    def num_src(self) -> int:
        return len(self.srcnodes)

    def allnodes(self) -> np.ndarray:
        """Seed ids followed by neighbor-row ids (the next hop's seeds)."""
        return np.concatenate([self.dstnodes, self.srcnodes])

    def alltimes(self) -> np.ndarray:
        return np.concatenate([self.dsttimes, self.etimes])

    def load(self, key: str, store: Tensor, which: str = "dst") -> Tensor:
        """Eagerly gather rows from *store* onto the device (pageable).

        Args:
            key: dict key the gathered tensor lands under.
            store: a graph-level tensor (features/memory/mail).
            which: ``'dst'`` -> ``dstdata[key]``; ``'src'`` ->
                ``srcdata[key]`` per neighbor row; ``'all'`` ->
                ``srcdata[key]`` for :meth:`allnodes`.
        """
        if which == "dst":
            idx, target = self.dstnodes, self.dstdata
        elif which == "src":
            idx, target = self.srcnodes, self.srcdata
        elif which == "all":
            idx, target = self.allnodes(), self.srcdata
        else:
            raise ValueError(f"unknown gather target: {which!r}")
        rows = store.data[idx]
        target[key] = Tensor(rows, device=store.device).to(self.device)
        return target[key]

    def load_edges(self, key: str, store: Tensor) -> Tensor:
        """Gather edge-feature rows onto the device (pageable)."""
        rows = store.data[self.eids]
        self.edata[key] = Tensor(rows, device=store.device).to(self.device)
        return self.edata[key]

    def __repr__(self) -> str:
        return f"MFG(dst={self.num_dst}, src={self.num_src}, device='{self.device}')"
