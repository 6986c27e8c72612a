"""Batched temporal-neighbor sampling kernels.

Arrays-in / arrays-out: every kernel takes the raw temporal-CSR arrays
(``indptr``, ``indices``, ``eids``, ``etimes`` — per-node neighbor lists
sorted by ascending edge time) plus the query ``(nodes, times)`` pairs,
and returns a :class:`SampleResult` of flat row arrays.  Destinations
with no earlier edges contribute zero rows.

Strategies (matching the paper):

* ``recent`` — the ``k`` most recent edges strictly before the query
  time, emitted in ascending time order.
* ``uniform`` — a uniform subset of the temporal history: each
  candidate edge's key is a splitmix64 hash of ``(seed, pass, node, query
  time, eid)``, quantized to ``_KEY_BITS`` bits, and the ``k`` smallest
  keys per destination are kept (a vectorized reservoir), emitted in
  ascending position order.  No generator stream is consumed, so a
  ``(node, time)`` gets the same neighbours whatever else is in its batch
  — what ``dedup`` and ``cache`` assume.  The loop reference hashes the
  same keys and breaks ties by position like the kernel (stable sorts),
  so the two are bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ...resilience.hooks import poke as _poke
from ...splitmix import splitmix64

__all__ = [
    "SampleResult",
    "segment_searchsorted",
    "sample_recent",
    "sample_uniform",
    "temporal_sample",
    "_reference_sample_arrays",
]

#: selection keys are quantized to this many bits so that
#: ``(row << _KEY_BITS) | key`` fits an int64 single-pass stable sort.
_KEY_BITS = 22


def _row_prefixes(seed: int, pass_index: int, nodes, times) -> np.ndarray:
    """Per-destination ``uint64`` key prefix: splitmix64 chained over the
    seed, the pass, the node and the query time's bits (``+ 0.0`` folds
    ``-0.0`` into ``0.0``)."""
    h = splitmix64(splitmix64(seed) ^ np.uint64(pass_index))
    h = splitmix64(np.asarray(nodes, dtype=np.int64).view(np.uint64) ^ h)
    return splitmix64(h ^ (np.asarray(times, dtype=np.float64) + 0.0).view(np.uint64))


def _candidate_keys(prefixes: np.ndarray, eids: np.ndarray) -> np.ndarray:
    """One more round mixing in each candidate's eid, quantized to the top
    ``_KEY_BITS`` bits (int64)."""
    h = splitmix64(prefixes ^ np.asarray(eids, dtype=np.int64).view(np.uint64))
    return (h >> np.uint64(64 - _KEY_BITS)).view(np.int64)


class SampleResult(NamedTuple):
    """Flat sampled-neighbor rows shared by every sampler front-end.

    Behaves as the historical ``(srcnodes, eids, etimes, dstindex)``
    4-tuple (it unpacks positionally) while giving the fields names.
    """

    #: neighbor node id per sampled edge row (int64).
    srcnodes: np.ndarray
    #: edge id per row, indexing the graph's edge features (int64).
    eids: np.ndarray
    #: edge timestamp per row (float64).
    etimes: np.ndarray
    #: destination row each source row belongs to (int64, non-decreasing).
    dstindex: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.srcnodes)


def _empty_result(n_rows: int = 0) -> SampleResult:
    return SampleResult(
        np.empty(n_rows, dtype=np.int64),
        np.empty(n_rows, dtype=np.int64),
        np.empty(n_rows, dtype=np.float64),
        np.empty(n_rows, dtype=np.int64),
    )


def segment_searchsorted(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Batched ``searchsorted(values[lo[i]:hi[i]], queries[i], side='left')``.

    ``values`` must be sorted ascending within each ``[lo[i], hi[i])``
    segment.  Returns absolute cut positions (``lo[i] + insertion point``)
    via a branchless lower bound: ``pos`` starts at ``lo`` and tries steps
    of ``2**j`` for ``j`` from ``ceil(log2(longest segment + 1)) - 1`` down
    to 0, advancing whenever the last element it would skip is
    ``< query``.  A step past ``hi`` is clamped to ``hi``, which is taken
    only when the whole segment is below the query.  Every query runs the
    same passes, a handful of full-width numpy ops each, instead of one
    Python-level bisect per query.  A NaN query compares false and stays
    at ``lo``.
    """
    pos = np.asarray(lo, dtype=np.int64).copy()
    hi = np.asarray(hi, dtype=np.int64)
    if not len(pos):
        return pos
    longest = int((hi - pos).max())
    for j in range(longest.bit_length() - 1, -1, -1):
        probe = np.minimum(pos + (1 << j), hi)
        # once pos == hi, probe == pos: the copy is a no-op whatever probe - 1 reads
        np.copyto(pos, probe, where=values[probe - 1] < queries)
    return pos


def _segment_layout(counts: np.ndarray):
    """Flat-gather helpers for variable-length per-destination segments.

    Returns ``(total, dstindex, within)`` where ``dstindex`` repeats each
    destination row id ``counts[i]`` times and ``within`` enumerates
    ``0..counts[i]-1`` inside each segment.
    """
    total = int(counts.sum())
    dstindex = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - starts[dstindex]
    return total, dstindex, within


def sample_recent(
    indptr: np.ndarray,
    indices: np.ndarray,
    eids: np.ndarray,
    etimes: np.ndarray,
    nodes: np.ndarray,
    times: np.ndarray,
    k: int,
) -> SampleResult:
    """Most-recent-``k`` temporal sampling, fully vectorized."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(nodes) == 0:
        return _empty_result()
    los = indptr[nodes]
    cuts = segment_searchsorted(etimes, los, indptr[nodes + 1], times)
    counts = np.minimum(cuts - los, k)
    total, dstindex, within = _segment_layout(counts)
    sel = (cuts - counts)[dstindex] + within
    return SampleResult(indices[sel], eids[sel], etimes[sel], dstindex)


def sample_uniform(
    indptr: np.ndarray,
    indices: np.ndarray,
    eids: np.ndarray,
    etimes: np.ndarray,
    nodes: np.ndarray,
    times: np.ndarray,
    k: int,
    seed: int = 0,
    pass_index: int = 0,
) -> SampleResult:
    """Uniform-without-replacement temporal sampling, fully vectorized.

    Every candidate edge (per destination, all edges strictly before its
    time) gets a hashed key; the ``k`` smallest keys per destination are
    kept, emitted in ascending position order.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(nodes) == 0:
        return _empty_result()
    los = indptr[nodes]
    cuts = segment_searchsorted(etimes, los, indptr[nodes + 1], times)
    avail = cuts - los
    counts = np.minimum(avail, k)
    cand_total, cand_row, cand_within = _segment_layout(avail)
    cand_pos = los[cand_row] + cand_within
    prefixes = _row_prefixes(seed, pass_index, nodes, times)
    keys = _candidate_keys(prefixes[cand_row], eids[cand_pos])
    # One stable int64 sort of (row, key) packed into a single word:
    # each row's candidates stay contiguous, ordered by ascending key, so
    # the first counts[row] entries of a segment are its smallest keys.
    order = np.argsort((cand_row << _KEY_BITS) | keys, kind="stable")
    # Scatter each candidate's key-rank back to its original position;
    # selecting by rank < counts keeps ascending position order for free.
    ranks = np.empty(cand_total, dtype=np.int64)
    ranks[order] = cand_within
    selected = ranks < counts[cand_row]
    sel = cand_pos[selected]
    return SampleResult(indices[sel], eids[sel], etimes[sel], cand_row[selected])


def temporal_sample(
    indptr: np.ndarray,
    indices: np.ndarray,
    eids: np.ndarray,
    etimes: np.ndarray,
    nodes: np.ndarray,
    times: np.ndarray,
    k: int,
    strategy: str = "recent",
    seed: int = 0,
    pass_index: int = 0,
) -> SampleResult:
    """Dispatch to :func:`sample_recent` / :func:`sample_uniform`."""
    _poke("kernel.sample")  # fault-injection site (no-op unless armed)
    if strategy == "recent":
        return sample_recent(indptr, indices, eids, etimes, nodes, times, k)
    if strategy == "uniform":
        return sample_uniform(indptr, indices, eids, etimes, nodes, times, k, seed, pass_index)
    raise ValueError(f"unknown strategy: {strategy!r}")


def _reference_sample_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    eids: np.ndarray,
    etimes: np.ndarray,
    nodes: np.ndarray,
    times: np.ndarray,
    k: int,
    strategy: str = "recent",
    seed: int = 0,
    pass_index: int = 0,
) -> SampleResult:
    """Per-destination loop sampler (pre-kernel implementation).

    :meth:`~repro.core.sampler.TSampler.sample_arrays` runs it when the
    context has degraded the ``kernel.sample`` site; the equivalence tests
    and the microbenchmark compare the kernels against it.  The uniform
    branch hashes each row's candidates with the kernel's keys, so both
    produce bit-identical selections.
    """
    if strategy not in ("recent", "uniform"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    nodes = np.asarray(nodes, dtype=np.int64)
    if strategy == "uniform":
        prefixes = _row_prefixes(seed, pass_index, nodes, times)
    sel, dstindex = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, node in enumerate(nodes):
        lo, hi = indptr[node], indptr[node + 1]
        cut = lo + np.searchsorted(etimes[lo:hi], times[i], side="left")
        if strategy == "recent":
            chosen = np.arange(max(lo, cut - k), cut)
        else:
            keys = _candidate_keys(prefixes[i], eids[lo:cut])
            chosen = lo + np.sort(np.argsort(keys, kind="stable")[:k])
        sel.append(chosen)
        dstindex.append(np.full(len(chosen), i, dtype=np.int64))
    sel = np.concatenate(sel)
    return SampleResult(indices[sel], eids[sel], etimes[sel], np.concatenate(dstindex))
