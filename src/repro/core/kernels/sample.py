"""Batched temporal-neighbor sampling kernels.

Arrays-in / arrays-out: every kernel takes the raw temporal-CSR arrays
(``indptr``, ``indices``, ``eids``, ``etimes`` — per-node neighbor lists
sorted by ascending edge time) plus the query ``(nodes, times)`` pairs,
and returns a :class:`SampleResult` of flat row arrays.  Destinations
with no earlier edges contribute zero rows.

Strategies (matching the paper):

* ``recent`` — the ``k`` most recent edges strictly before the query
  time, emitted in ascending time order.
* ``uniform`` — a uniform subset of the temporal history.  The kernel
  draws one random key per candidate edge, quantized to
  ``_KEY_BITS`` bits, and keeps the ``k`` smallest keys per destination
  (a vectorized reservoir), emitting the selection in ascending position
  order.  Because :meth:`numpy.random.Generator.random` produces the
  same stream whether drawn in one call or per-row chunks, the loop
  reference consumes the generator identically; quantized-key ties are
  broken by original position in both (stable sorts), so the two
  implementations are bit-identical under a fixed seed.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ...resilience.hooks import poke as _poke

__all__ = [
    "SampleResult",
    "segment_searchsorted",
    "sample_recent",
    "sample_uniform",
    "temporal_sample",
    "_reference_sample_arrays",
]

#: random selection keys are quantized to this many bits so that
#: ``(row << _KEY_BITS) | key`` fits an int64 single-pass stable sort.
_KEY_BITS = 22


def _quantized_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw *n* selection keys as ints in ``[0, 2**_KEY_BITS)``."""
    return (rng.random(n) * (1 << _KEY_BITS)).astype(np.int64)


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
    rng: np.random.Generator,
) -> SampleResult:
    """Uniform-without-replacement temporal sampling, fully vectorized.

    One random key is drawn per candidate edge (per destination, all
    edges strictly before its time); the ``k`` smallest keys per
    destination are kept, emitted in ascending position order.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(nodes) == 0:
        return _empty_result()
    los = indptr[nodes]
    cuts = segment_searchsorted(etimes, los, indptr[nodes + 1], times)
    avail = cuts - los
    counts = np.minimum(avail, k)
    cand_total, cand_row, cand_within = _segment_layout(avail)
    keys = _quantized_keys(rng, cand_total)
    # One stable int64 sort of (row, key) packed into a single word:
    # each row's candidates stay contiguous, ordered by ascending key, so
    # the first counts[row] entries of a segment are its smallest keys.
    order = np.argsort((cand_row << _KEY_BITS) | keys, kind="stable")
    # Scatter each candidate's key-rank back to its original position;
    # selecting by rank < counts keeps ascending position order for free.
    ranks = np.empty(cand_total, dtype=np.int64)
    ranks[order] = cand_within
    selected = ranks < counts[cand_row]
    dstindex = cand_row[selected]
    sel = los[dstindex] + cand_within[selected]
    return SampleResult(indices[sel], eids[sel], etimes[sel], dstindex)


def temporal_sample(
    indptr: np.ndarray,
    indices: np.ndarray,
    eids: np.ndarray,
    etimes: np.ndarray,
    nodes: np.ndarray,
    times: np.ndarray,
    k: int,
    strategy: str = "recent",
    rng: Optional[np.random.Generator] = None,
) -> SampleResult:
    """Dispatch to :func:`sample_recent` / :func:`sample_uniform`."""
    _poke("kernel.sample")  # fault-injection site (no-op unless armed)
    if strategy == "recent":
        return sample_recent(indptr, indices, eids, etimes, nodes, times, k)
    if strategy == "uniform":
        if rng is None:
            raise ValueError("uniform sampling requires an rng")
        return sample_uniform(indptr, indices, eids, etimes, nodes, times, k, rng)
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
    rng: Optional[np.random.Generator] = None,
) -> SampleResult:
    """Per-destination loop sampler (pre-kernel implementation).

    Kept only for the equivalence tests and the microbenchmark.  The
    uniform branch draws per-row key chunks from the same generator
    stream the vectorized kernel consumes in one call, so both produce
    bit-identical selections under a fixed seed.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    n = len(nodes)
    counts = np.empty(n, dtype=np.int64)
    cuts = np.empty(n, dtype=np.int64)
    los = indptr[nodes]
    his = indptr[nodes + 1]
    for i in range(n):
        lo, hi = los[i], his[i]
        cut = lo + np.searchsorted(etimes[lo:hi], times[i], side="left")
        cuts[i] = cut
        counts[i] = min(cut - lo, k)
    total = int(counts.sum())
    out_nbr = np.empty(total, dtype=np.int64)
    out_eid = np.empty(total, dtype=np.int64)
    out_ets = np.empty(total, dtype=np.float64)
    out_idx = np.empty(total, dtype=np.int64)
    pos = 0
    if strategy == "recent":
        for i in range(n):
            c = counts[i]
            if c == 0:
                continue
            cut = cuts[i]
            sel = slice(cut - c, cut)
            out_nbr[pos : pos + c] = indices[sel]
            out_eid[pos : pos + c] = eids[sel]
            out_ets[pos : pos + c] = etimes[sel]
            out_idx[pos : pos + c] = i
            pos += c
    elif strategy == "uniform":
        if rng is None:
            raise ValueError("uniform sampling requires an rng")
        for i in range(n):
            lo, cut = los[i], cuts[i]
            avail = cut - lo
            if avail == 0:
                continue
            keys = _quantized_keys(rng, avail)
            c = counts[i]
            pick = np.sort(np.argsort(keys, kind="stable")[:c])
            chosen = lo + pick
            out_nbr[pos : pos + c] = indices[chosen]
            out_eid[pos : pos + c] = eids[chosen]
            out_ets[pos : pos + c] = etimes[chosen]
            out_idx[pos : pos + c] = i
            pos += c
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    return SampleResult(out_nbr, out_eid, out_ets, out_idx)
