"""`repro.store`: the memo cache behind every cache front-end.

Per memoization space, one bounded hot ring of computed rows::

    hot (device-resident ring, reuse-distance eviction; an evicted row is
         dropped, and a lookup of it misses and is recomputed)

One implementation — :class:`TieredFeatureStore` — serves every
front-end: ``TContext`` embedding caches, ``op.cache`` (a re-export of
:func:`repro.store.ops.memoize`) and the serving ``cache`` rung.  It also
owns the :class:`PinnedPool` that ``op.preload`` (:func:`repro.store.ops.preload`)
stages gathered rows through.  Bytes stored and the rings' hits / misses /
evictions are counted into the context's counter table (``store:hot:*``
keys of ``ctx.stats().counters``).
"""

from .api import StoreConfig
from .tiered import TieredFeatureStore
from .tiers import PinnedPool
from . import ops

__all__ = [
    "StoreConfig",
    "TieredFeatureStore",
    "PinnedPool",
    "ops",
]
