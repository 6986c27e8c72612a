"""Temporal-graph analytics: the statistics the paper's speedups depend on.

§5's discussion attributes the optimization operators' effectiveness to
workload properties — how often the same (node, time) pairs repeat within
batches (dedup), how often embeddings recur across batches (cache), how
concentrated the time-delta distribution is (time precomputation), and
how skewed popularity is.  This module quantifies those properties for
any :class:`~repro.data.dataset.TemporalDataset`, so users can predict
which operators will pay off on their own data before training anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import TGraph, TSampler, TBlock, TContext, iter_batches

__all__ = ["WorkloadProfile", "profile_dataset", "batch_duplication_ratio"]


@dataclass
class WorkloadProfile:
    """Optimization-relevant statistics of a CTDG workload."""

    name: str
    num_nodes: int
    num_edges: int
    #: edges per node (density; higher -> deeper histories to sample).
    edges_per_node: float
    #: fraction of (src, dst) pairs that repeat at least once.
    repeat_pair_fraction: float
    #: Gini coefficient of destination popularity (skew; 0 uniform, 1 extreme).
    popularity_gini: float
    #: mean fraction of duplicate (node, time) pairs in 2-hop frontiers —
    #: the work dedup() removes.
    dedup_potential: float
    #: fraction of distinct time deltas among sampled neighbor deltas —
    #: lower means precomputed_times() reuses more rows.
    delta_distinct_fraction: float
    #: median / 99th-percentile inter-event gap (burstiness indicator).
    median_gap: float
    p99_gap: float


def _gini(counts: np.ndarray) -> float:
    """Gini coefficient of a non-negative count vector."""
    counts = np.sort(counts.astype(np.float64))
    n = len(counts)
    total = counts.sum()
    if n == 0 or total == 0:
        return 0.0
    cumulative = np.cumsum(counts)
    # Standard formula: 1 - 2 * sum((cum - x/2)) / (n * total)
    return float(1.0 - 2.0 * np.sum(cumulative - counts / 2.0) / (n * total))


def batch_duplication_ratio(
    g: TGraph,
    batch_size: int,
    num_nbrs: int = 10,
    max_batches: int = 10,
    start: Optional[int] = None,
) -> float:
    """Mean fraction of duplicate (node, time) pairs in 2-hop frontiers.

    This is exactly the row reduction ``op.dedup`` achieves before
    sampling the second hop — the paper's key workload lever.
    """
    ctx = TContext(g)
    sampler = TSampler(num_nbrs, "recent")
    if start is None:
        start = g.num_edges // 2  # mid-stream: histories are warm
    ratios = []
    for i, batch in enumerate(iter_batches(g, batch_size, start=start)):
        if i >= max_batches:
            break
        head = batch.block(ctx)
        sampler.sample(head)
        tail = head.next_block()
        pairs = np.empty(tail.num_dst, dtype=[("n", np.int64), ("t", np.float64)])
        pairs["n"] = tail.dstnodes
        pairs["t"] = tail.dsttimes
        unique = len(np.unique(pairs))
        if tail.num_dst:
            ratios.append(1.0 - unique / tail.num_dst)
    return float(np.mean(ratios)) if ratios else 0.0


def _delta_distinct_fraction(
    g: TGraph, batch_size: int, num_nbrs: int, max_batches: int
) -> float:
    ctx = TContext(g)
    sampler = TSampler(num_nbrs, "recent")
    start = g.num_edges // 2
    deltas = []
    for i, batch in enumerate(iter_batches(g, batch_size, start=start)):
        if i >= max_batches:
            break
        head = batch.block(ctx)
        sampler.sample(head)
        if head.num_src:
            deltas.append(head.time_deltas().astype(np.float32))
    if not deltas:
        return 1.0
    flat = np.concatenate(deltas)
    return float(len(np.unique(flat)) / len(flat))


def profile_dataset(dataset, batch_size: int = 300, num_nbrs: int = 10,
                    max_batches: int = 8) -> WorkloadProfile:
    """Compute a :class:`WorkloadProfile` for *dataset*."""
    g = dataset.build_graph()
    src, dst, ts = dataset.src, dataset.dst, dataset.ts

    pairs = src.astype(np.int64) * dataset.num_nodes + dst
    _, counts = np.unique(pairs, return_counts=True)
    repeat_fraction = float((counts > 1).sum() / len(counts)) if len(counts) else 0.0

    popularity = np.bincount(dst, minlength=dataset.num_nodes)

    gaps = np.diff(ts)
    gaps = gaps[gaps > 0]

    return WorkloadProfile(
        name=dataset.name,
        num_nodes=dataset.num_nodes,
        num_edges=dataset.num_edges,
        edges_per_node=dataset.num_edges / max(dataset.num_nodes, 1),
        repeat_pair_fraction=repeat_fraction,
        popularity_gini=_gini(popularity),
        dedup_potential=batch_duplication_ratio(
            g, batch_size, num_nbrs=num_nbrs, max_batches=max_batches
        ),
        delta_distinct_fraction=_delta_distinct_fraction(
            g, batch_size, num_nbrs, max_batches
        ),
        median_gap=float(np.median(gaps)) if len(gaps) else 0.0,
        p99_gap=float(np.quantile(gaps, 0.99)) if len(gaps) else 0.0,
    )
