"""TSampler: temporal neighborhood sampling as a block operator.

Given a block's destination node-time pairs, the sampler selects up to
``num_nbrs`` neighbors per pair from the graph's temporal CSR, restricted
to edges strictly earlier than the pair's time (the ``N(i, t)`` of Eq. 2).
Two strategies are supported, matching the paper: ``'recent'`` (most recent
edges first — TGL's default and the setting used in the evaluation) and
``'uniform'`` (uniform over the temporal history).

The original implementation is a 32/64-thread C++ parallel sampler; here
the heavy lifting is done by the batched numpy kernels in
:mod:`repro.core.kernels.sample` — a vectorized per-segment binary search
plus flat segment-offset gathers — which are bit-identical to the per-pair
loop reference (see ``tests/test_kernels.py``) while running orders of
magnitude faster on large destination sets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..spans import span
from .block import TBlock
from .kernels import SampleResult, _reference_sample_arrays, temporal_sample

__all__ = ["TSampler"]


class TSampler:
    """Parallel temporal neighborhood sampler.

    Args:
        num_nbrs: maximum neighbors sampled per destination pair.
        strategy: ``'recent'`` or ``'uniform'``.
        seed: key seed for the uniform strategy.  A destination's uniform
            sample is a pure function of ``(seed, pass_index, node, time)``
            and the graph; ``pass_index`` is the training epoch while one
            runs (set by the trainers) and 0 otherwise, so every epoch
            re-samples and evaluation, inference and serving agree.
    """

    def __init__(self, num_nbrs: int, strategy: str = "recent", seed: int = 0):
        if num_nbrs <= 0:
            raise ValueError("num_nbrs must be positive")
        if strategy not in ("recent", "uniform"):
            raise ValueError(f"unknown strategy: {strategy!r}")
        self.num_nbrs = num_nbrs
        self.strategy = strategy
        self.seed = seed
        self.pass_index = 0

    def sample(self, block: TBlock, num_nbrs: Optional[int] = None) -> TBlock:
        """Fill *block* with sampled neighbor rows and return it.

        ``num_nbrs`` overrides the configured fanout for this call (the
        serving runtime's degradation ladder shrinks fanout under deadline
        pressure); without it, a ``ctx.fanout_limit`` set on the block's
        context caps the fanout instead.
        """
        with span("kernel:sample"):
            result = self.sample_arrays(
                block.g.csr(), block.dstnodes, block.dsttimes, ctx=block.ctx,
                num_nbrs=num_nbrs,
            )
        block.set_nbrs(*result)
        return block

    def effective_fanout(self, ctx=None, num_nbrs: Optional[int] = None) -> int:
        """Resolve the fanout for one call: explicit override, else the
        context's ``fanout_limit`` cap, else the configured ``num_nbrs``."""
        if num_nbrs is not None:
            if num_nbrs <= 0:
                raise ValueError("num_nbrs override must be positive")
            return int(num_nbrs)
        k = self.num_nbrs
        limit = getattr(ctx, "fanout_limit", None) if ctx is not None else None
        if limit is not None:
            k = max(1, min(k, int(limit)))
        return k

    def sample_arrays(
        self,
        csr,
        nodes: np.ndarray,
        times: np.ndarray,
        ctx=None,
        num_nbrs: Optional[int] = None,
    ) -> SampleResult:
        """Core sampling kernel on raw arrays.

        Returns a :class:`~repro.core.kernels.SampleResult` of flat
        ``(srcnodes, eids, etimes, dstindex)`` row arrays.  Destinations
        with no earlier edges simply contribute zero rows.

        When the context has degraded the sampling kernel (repeated
        transient faults; see ``TContext.record_kernel_fault``), the
        bit-identical loop-reference implementation is used instead —
        slower, but it never enters the faulting vectorized kernel.
        """
        k = self.effective_fanout(ctx, num_nbrs)
        degraded = ctx is not None and ctx.is_degraded("kernel.sample")
        kernel = _reference_sample_arrays if degraded else temporal_sample
        return kernel(csr.indptr, csr.indices, csr.eids, csr.etimes, nodes, times, k,
                      self.strategy, self.seed, self.pass_index)

    def __repr__(self) -> str:
        return f"TSampler(num_nbrs={self.num_nbrs}, strategy='{self.strategy}')"
