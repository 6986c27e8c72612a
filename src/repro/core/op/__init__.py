"""TBlock-based operators: computation, multi-block, and optimization.

Mirrors the operator surface of Table 1 in the paper:

================  =========================================================
``sample``         via :class:`~repro.core.sampler.TSampler` (single-block)
``coalesce``       re-arrange/reduce source rows per destination
``edge_reduce``    segmented reduction per destination
``edge_softmax``   segmented softmax per destination
``edge_attention`` fused K/V projection + softmax + weighted sum per destination
``src_scatter``    push-style reduction onto unique source nodes
``aggregate``      pull-style multi-hop aggregation (multi-block)
``propagate``      push-style traversal toward the tail (multi-block)
``dedup``          unique (node, time) filtering (optimization)
``cache``          embedding memoization (optimization)
``preload``        pinned-memory batched loading (optimization)
``precomputed_zeros`` / ``precomputed_times``  time precomputation
================  =========================================================
"""

from .aggregate import aggregate, propagate
from .coalesce import coalesce
from .dedup import dedup, unique_node_times
from .precompute import precomputed_times, precomputed_zeros
from .scatter import edge_attention, edge_reduce, edge_softmax, src_scatter

# ``cache`` and ``preload`` are the paper's Table-1 names for the two
# operators the tiered feature store implements.
from ...store.ops import memoize as cache, preload

__all__ = [
    "aggregate",
    "propagate",
    "cache",
    "coalesce",
    "dedup",
    "unique_node_times",
    "precomputed_times",
    "precomputed_zeros",
    "preload",
    "edge_attention",
    "edge_reduce",
    "edge_softmax",
    "src_scatter",
]
