"""`repro.store`: the feature store behind every cache front-end.

Per space, one bounded hot ring over its source::

    hot (device-resident ring, reuse-distance eviction; evictions drop)
      <-> source (authoritative array; memo spaces have none: a miss recomputes)
    staging (pinned host rows) holds prefetched source rows only

One implementation — :class:`TieredFeatureStore` — serves every
front-end: ``TContext`` embedding caches, ``op.cache``/``op.preload``
(re-exports of :mod:`repro.store.ops`), the TGL baseline's
feature gathers, the trainer (via :class:`BatchPipeline` sampler
lookahead), and the serving degradation ladder (via
``estimate_fetch_seconds``).  Bytes moved per tier and stall time
saved by async prefetch are counted into the context's counter table
(``store:*`` keys of ``ctx.stats().counters``, benchmark tables).
"""

from .api import StoreConfig
from .prefetch import BatchPipeline
from .tiered import TieredFeatureStore
from .tiers import PinnedPool
from . import ops

__all__ = [
    "StoreConfig",
    "TieredFeatureStore",
    "BatchPipeline",
    "PinnedPool",
    "ops",
]
