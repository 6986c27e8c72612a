"""Kept for one name: ``unique_node_times``, which ``perf/trace.py`` wraps
here as ``repro.store.tiered.unique_node_times``.  The memo cache itself
is ``TContext.embed_cache`` (one :class:`~repro.core.kernels.cache.NodeTimeCache`
ring per layer)."""

from ..core.kernels.dedup import unique_node_times  # noqa: F401
