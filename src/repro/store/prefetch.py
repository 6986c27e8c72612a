"""Async prefetcher: one-batch sampler lookahead on the simulated clock.

While the consumer computes batch *N*, the pipeline predicts batch
*N+1*'s working set — its endpoint nodes plus a most-recent-``k``
neighbor sample over the temporal CSR, the same prediction the real
sampler will make — and issues :meth:`TieredFeatureStore.prefetch` for
the spaces that batch will gather.  Batch *N*'s modeled compute time
then advances the clock, so by the time *N+1* executes its transfers
have (partially) completed and its gathers stall less.  The recovered
stall shows up as ``stall_saved_seconds`` in the store's stats.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.kernels.sample import temporal_sample
from .tiered import TieredFeatureStore

__all__ = ["BatchPipeline", "attach_graph_sources"]


def attach_graph_sources(store: TieredFeatureStore, graph) -> tuple:
    """Register the graph's bulk arrays as the store's source spaces.

    Backs ``'nfeat'`` with the node-feature table and ``'mem'`` with the
    node-memory table (each only when the graph has one), so lookahead
    prefetch and demand gathers resolve against the live authorities.
    Returns the tuple of spaces registered.
    """
    spaces = []
    if getattr(graph, "nfeat", None) is not None:
        feat = graph.nfeat
        store.register_source(
            "nfeat", lambda nodes: feat.data[nodes], dim=int(feat.shape[1])
        )
        spaces.append("nfeat")
    if getattr(graph, "mem", None) is not None:
        mem = graph.mem
        store.register_source(
            "mem", lambda nodes: mem.data.data[nodes], dim=int(mem.data.shape[1])
        )
        spaces.append("mem")
    return tuple(spaces)


class BatchPipeline:
    """Wraps a batch iterator with lookahead-driven prefetch.

    Args:
        store: the tiered store transfers are issued against.
        graph: the :class:`~repro.core.graph.TGraph` batches come from
            (its CSR drives the neighbor lookahead).
        spaces: store spaces to prefetch for each predicted batch;
            spaces the store has never seen are skipped.
        fanout: neighbor fanout of the lookahead sample.

    Use :meth:`batches` as a drop-in transform::

        for batch in pipeline.batches(iter_batches(g, size)):
            ...train on batch...
    """

    def __init__(self, store: TieredFeatureStore, graph,
                 spaces: Sequence[str] = ("nfeat", "mem"),
                 fanout: int = 10):
        self.store = store
        self.graph = graph
        self.spaces = tuple(spaces)
        self.fanout = int(fanout)
        #: predicted rows prefetched per space (diagnostic).
        self.issued = 0

    # ---- working-set prediction ---------------------------------------------------

    def predict_nodes(self, batch) -> np.ndarray:
        """Batch endpoints + their most-recent-k temporal neighbors."""
        nodes = np.asarray(batch.nodes(), dtype=np.int64)
        if len(nodes) == 0:
            return nodes
        out = [nodes]
        if self.fanout > 0:
            csr = self.graph.csr()
            res = temporal_sample(csr.indptr, csr.indices, csr.eids,
                                  csr.etimes, nodes, batch.times(),
                                  self.fanout, strategy="recent")
            if len(res.srcnodes):
                out.append(res.srcnodes)
        return np.unique(np.concatenate(out))

    def prefetch_batch(self, batch) -> int:
        """Issue prefetches for one upcoming batch; returns rows issued."""
        if self.store.config.prefetch_depth <= 0:
            return 0
        nodes = self.predict_nodes(batch)
        if len(nodes) == 0:
            return 0
        issued = 0
        for space in self.spaces:
            if space in self.store.spaces():
                issued += self.store.prefetch(nodes, None, space=space)
        self.issued += issued
        return issued

    def consume_batch(self, batch) -> int:
        """Gather one batch's working set through the store.

        Models the data-load the consumer performs for *batch*: rows an
        earlier prefetch already staged are consumed (crediting
        ``stall_saved_seconds``), everything else pays the demand stall.
        Returns the number of rows gathered.
        """
        nodes = self.predict_nodes(batch)
        if len(nodes) == 0:
            return 0
        rows = 0
        for space in self.spaces:
            if space in self.store.spaces():
                found, _ = self.store.lookup(nodes, None, space=space)
                rows += int(found.sum())
        return rows

    # ---- clock modeling -----------------------------------------------------------

    def compute_seconds(self, batch) -> float:
        """Modeled compute time of one batch (the overlap window)."""
        rows = len(batch.nodes()) * (1 + self.fanout)
        return rows * self.store.config.compute_seconds_per_row

    def advance(self, batch) -> None:
        """Advance the simulated clock past *batch*'s compute."""
        self.store.clock.advance(self.compute_seconds(batch))

    # ---- the pipeline -------------------------------------------------------------

    def batches(self, iterable: Iterable) -> Iterator:
        """Yield batches while prefetching one batch ahead.

        Lookahead depth follows ``config.prefetch_depth`` (0 disables
        prefetch; the clock still advances so timing stays comparable).
        """
        depth = max(0, int(self.store.config.prefetch_depth))
        it = iter(iterable)
        window: list = []
        # Prime: the head batch runs immediately (nothing can be ahead of
        # it); the `depth` batches behind it are prefetched at clock zero
        # so their transfers overlap the head's compute.
        for batch in it:
            window.append(batch)
            if len(window) > 1:
                self.prefetch_batch(batch)
            if len(window) >= depth + 1:
                break
        while window:
            batch = window.pop(0)
            self.consume_batch(batch)
            yield batch
            self.advance(batch)
            nxt = next(it, None)
            if nxt is not None:
                if depth > 0:
                    self.prefetch_batch(nxt)
                window.append(nxt)
