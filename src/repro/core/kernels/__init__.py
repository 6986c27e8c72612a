"""Vectorized hot-path kernels shared by the TBlock operator front-ends.

The paper attributes TGLite's speedups to fast shared kernels *under* the
operator surface: a 32/64-thread C++ temporal sampler and TGOpt-style
memoization tables.  This package is the numpy analog — batched kernels
with a uniform **arrays-in / arrays-out** contract that every front-end
(:class:`repro.core.TSampler`, :class:`repro.manual.NeighborFinder`, the
TGL baseline sampler, ``op.dedup``, ``op.cache``) dispatches through:

* :mod:`~repro.core.kernels.sample` — fully vectorized temporal-neighbor
  sampling (batched per-segment binary search over the temporal CSR, flat
  segment-offset gathers, and a random-key selection scheme for uniform
  sampling that stays deterministic under a fixed seed).
* :mod:`~repro.core.kernels.cache` — an array-based (node, time) -> slot
  store using vectorized open-addressing probes, backing ``op.cache()``
  and the manual baseline's memo table.
* :mod:`~repro.core.kernels.dedup` — vectorized unique-(node, time)
  computation for ``op.dedup()``.

The sample and dedup kernels keep their original per-row loop
implementation as a ``_reference_*`` sibling (the cache's reference is
``tests/reference.py``'s ``ReuseCacheOracle``); those references are
exercised only by the equivalence tests (``tests/test_kernels.py``) and
the microbenchmark (``benchmarks/test_kernels_microbench.py``), which
assert that the vectorized kernels are bit-identical and measure their
speedup.
"""

from .cache import NodeTimeCache
from .dedup import (
    _reference_unique_node_times,
    canonical_event_order,
    last_event_wins,
    unique_node_times,
)
from .sample import (
    SampleResult,
    _reference_sample_arrays,
    sample_recent,
    sample_uniform,
    segment_searchsorted,
    temporal_sample,
)

__all__ = [
    "SampleResult",
    "temporal_sample",
    "sample_recent",
    "sample_uniform",
    "segment_searchsorted",
    "unique_node_times",
    "last_event_wins",
    "canonical_event_order",
    "NodeTimeCache",
    "_reference_sample_arrays",
    "_reference_unique_node_times",
]
