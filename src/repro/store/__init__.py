"""`repro.store`: the sizing and operators of the memo cache.

The memo cache is ``TContext``'s: one bounded ring of computed rows per
layer (``ctx.embed_cache(layer)``, a reuse-distance
:class:`~repro.core.kernels.cache.NodeTimeCache`; an evicted row is
dropped, and a lookup of it misses and is recomputed).  This package
holds what sizes those rings (:class:`StoreConfig`), the
:class:`PinnedPool` the context stages gathered rows through, and the two
data-movement operators — ``op.cache`` (:func:`repro.store.ops.memoize`)
and ``op.preload`` (:func:`repro.store.ops.preload`).  Each ring's counts
are the context's read-time ``embed:<layer>:*`` keys.
"""

from .api import StoreConfig
from .tiers import PinnedPool
from . import ops

__all__ = [
    "StoreConfig",
    "PinnedPool",
    "ops",
]
