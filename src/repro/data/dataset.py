"""TemporalDataset: a named CTDG with features, splits, and statistics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ..core import TGraph
from ..tensor import Tensor
from .synthetic import (
    DATASETS,
    GeneratorSpec,
    generate_edges,
    generate_features,
    generate_labels,
)

__all__ = ["TemporalDataset", "get_dataset", "available_datasets"]


@dataclass
class TemporalDataset:
    """A continuous-time temporal graph dataset.

    Attributes:
        name: registry name (e.g. ``'wiki'``).
        src/dst/ts: chronological edge arrays.
        nfeat/efeat: feature matrices (numpy; wrapped into tensors when a
            graph is built so placement stays caller-controlled).
        num_nodes: total node count.
        spec: the generator recipe, including paper-scale counts.
    """

    name: str
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    nfeat: np.ndarray
    efeat: np.ndarray
    num_nodes: int
    spec: Optional[GeneratorSpec] = None
    #: dynamic per-interaction source-node labels (state-change events),
    #: used by the node-classification task; rare positives.
    edge_labels: Optional[np.ndarray] = None

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def build_graph(self, feature_device=None) -> TGraph:
        """Materialize a :class:`TGraph` with features on *feature_device*.

        Args:
            feature_device: ``'cpu'`` (default) keeps node/edge features
                host-resident (the CPU-to-GPU case); ``'cuda'`` places them
                on the simulated device (the all-on-GPU case).
        """
        g = TGraph(self.src, self.dst, self.ts, num_nodes=self.num_nodes)
        g.set_nfeat(Tensor(self.nfeat, device=feature_device))
        g.set_efeat(Tensor(self.efeat, device=feature_device))
        return g

    def splits(self) -> Tuple[int, int, int]:
        """Chronological (train, val, test) edge-index boundaries.

        Returns ``(train_end, val_end, test_end)`` such that training edges
        are ``[0, train_end)``, validation ``[train_end, val_end)``, and
        testing ``[val_end, test_end)`` — the standard 70/15/15 protocol of
        the JODIE/TGL evaluations.
        """
        m = self.num_edges
        train_end = int(m * 0.70)
        val_end = int(m * (0.70 + 0.15))
        return train_end, val_end, m

    def stats(self) -> Dict[str, object]:
        """Summary row matching Table 3's columns (plus scale factors)."""
        row = {
            "dataset": self.name,
            "|V|": self.num_nodes,
            "|E|": self.num_edges,
            "d_v": self.nfeat.shape[1],
            "d_e": self.efeat.shape[1],
            "max(t)": float(self.ts[-1]) if len(self.ts) else 0.0,
        }
        if self.spec is not None:
            row["paper |V|"] = self.spec.paper_nodes
            row["paper |E|"] = self.spec.paper_edges
            row["node scale"] = (
                round(self.spec.paper_nodes / self.num_nodes, 1) if self.num_nodes else 0
            )
            row["edge scale"] = (
                round(self.spec.paper_edges / self.num_edges, 1) if self.num_edges else 0
            )
        return row

    def bipartite_partition(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(user ids, item ids) for bipartite datasets, else None."""
        if self.spec is None or not self.spec.bipartite:
            return None
        num_users = max(1, int(round(self.num_nodes * self.spec.user_fraction)))
        return (
            np.arange(num_users, dtype=np.int64),
            np.arange(num_users, self.num_nodes, dtype=np.int64),
        )


def available_datasets() -> Tuple[str, ...]:
    """Names accepted by :func:`get_dataset`."""
    return tuple(DATASETS)


@lru_cache(maxsize=None)
def _load(name: str) -> TemporalDataset:
    spec = DATASETS[name]
    src, dst, ts = generate_edges(spec)
    nfeat, efeat = generate_features(spec)
    labels = generate_labels(spec, src, ts)
    return TemporalDataset(
        name=name, src=src, dst=dst, ts=ts,
        nfeat=nfeat, efeat=efeat, num_nodes=spec.num_nodes, spec=spec,
        edge_labels=labels,
    )


def get_dataset(name: str) -> TemporalDataset:
    """Load (generating on first use) the named synthetic dataset."""
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    return _load(name)
