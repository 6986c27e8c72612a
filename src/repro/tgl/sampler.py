"""TGL's temporal sampler: multi-hop, standalone MFGs, fused deltas.

Shares the low-level temporal sampling kernel with TGLite's
:class:`~repro.core.sampler.TSampler` (both frameworks used equivalent
parallel C++ samplers in the paper, so kernel parity keeps the comparison
about the framework structure, not the sampler).  The differences are
structural: TGL samples *all hops up front* from the raw seed set — no
opportunity to dedup/cache-shrink between hops — and emits standalone MFGs
carrying precomputed time deltas, returned innermost-first.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.graph import TGraph
from ..core.kernels import SampleResult
from ..core.sampler import TSampler
from ..tensor.device import Device
from .mfg import MFG

__all__ = ["TGLSampler"]


class TGLSampler:
    """Multi-hop temporal sampler for the TGL baseline.

    Args:
        g: temporal graph.
        num_nbrs: neighbors sampled per seed per hop.
        strategy: ``'recent'`` or ``'uniform'``.
        seed: key seed for uniform sampling.
    """

    def __init__(self, g: TGraph, num_nbrs: int, strategy: str = "recent", seed: int = 0):
        self.g = g
        self._kernel = TSampler(num_nbrs, strategy, seed=seed)

    @property
    def pass_index(self) -> int:
        """The uniform strategy's key pass (see :class:`TSampler`)."""
        return self._kernel.pass_index

    @pass_index.setter
    def pass_index(self, value: int) -> None:
        self._kernel.pass_index = value

    def sample_hop(self, device: Device, nodes: np.ndarray, times: np.ndarray) -> MFG:
        """Sample one hop for the given seeds into a standalone MFG."""
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        result: SampleResult = self._kernel.sample_arrays(self.g.csr(), nodes, times)
        return MFG(device, nodes, times, *result)

    def sample(
        self,
        device: Device,
        nodes: np.ndarray,
        times: np.ndarray,
        num_hops: int,
    ) -> List[MFG]:
        """Sample *num_hops* hops from the seeds; returns innermost-first.

        Each deeper hop's seeds are the previous hop's seeds followed by
        its neighbor rows — duplicates included, since TGL recomputes
        embeddings for repeated (node, time) pairs.
        """
        mfgs: List[MFG] = []
        cur_nodes = np.asarray(nodes, dtype=np.int64)
        cur_times = np.asarray(times, dtype=np.float64)
        for _ in range(num_hops):
            mfg = self.sample_hop(device, cur_nodes, cur_times)
            mfgs.append(mfg)
            cur_nodes = mfg.allnodes()
            cur_times = mfg.alltimes()
        mfgs.reverse()
        return mfgs
