"""Vectorized unique-(node, time) computation for ``op.dedup()``.

The structured-dtype ``np.unique`` of the original implementation pays
for void-dtype comparisons; the kernel gets the same answer from one
``lexsort`` plus boundary detection over plain int64/float64 arrays, and
skips the ``lexsort`` when the pairs already arrive strictly increasing
(the memo store's input is ``dedup``'s sorted output).

:func:`unique_ids` is the bounded-id sibling: node, edge and ring-slot ids
lie in ``[0, bound)`` for a bound the graph or the ring fixes, so their
unique set is counted in O(n + bound) rather than sorted.

Also home to :func:`last_event_wins`, the duplicate-node coalescing rule
shared by ``Memory.update`` and ``Mailbox.store``: when one batch carries
several entries for the same node, the entry with the greatest timestamp
wins, with ties on ``(node, time)`` broken by the raw bytes of the value
row — compared exactly, and only inside tie groups — so the outcome is
deterministic regardless of input order.  (Before PR 15 the tie-break was
a 64-bit hash of every row, so a tie group with *different* bytes may now
commit a different winner; it is the same winner on every permutation,
replay and replica, because all of them run this one rule.)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "unique_ids",
    "unique_node_times",
    "unique_first_last",
    "has_repeats",
    "last_event_wins",
    "canonical_event_order",
    "group_spans",
    "_reference_unique_node_times",
]


def unique_ids(ids: np.ndarray, bound: int):
    """``np.unique(ids, return_inverse=True)`` for integer ids in ``[0, bound)``.

    Bit for bit the same ``(uniq, inverse)`` — ``uniq`` in the ids' dtype,
    ``inverse`` int64 — from marking the ids present, ``flatnonzero`` over
    the marks, a remap of each present id to its rank and a gather: O(n +
    bound), no sort.  An id outside ``[0, bound)`` raises ``IndexError``.
    """
    ids = np.asarray(ids).reshape(-1)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"unique_ids needs integer ids, got {ids.dtype}")
    if len(ids) and ids.min() < 0:
        raise IndexError(f"id {ids.min()} is negative")
    present = np.zeros(bound, dtype=bool)
    present[ids] = True  # an id >= bound raises IndexError here
    uniq = np.flatnonzero(present)
    rank = np.empty(bound, dtype=np.int64)
    rank[uniq] = np.arange(len(uniq))
    return uniq.astype(ids.dtype, copy=False), rank[ids]


def _sorted_runs(nodes: np.ndarray, times: np.ndarray):
    """``(order, sorted nodes, sorted times, run-start mask)`` of one stable
    (node, time) lexsort of a non-empty batch.

    Pairs that are already strictly increasing — ``dedup``'s output, which
    the memo store receives — are their own sort: an O(n) check skips the
    ``lexsort`` (``-0.0``/``+0.0`` and NaN times fail it and are sorted).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    if (nodes[1:] >= nodes[:-1]).all() and (
            (nodes[1:] > nodes[:-1]) | (times[1:] > times[:-1])).all():
        n = len(nodes)
        return np.arange(n), nodes, times, np.ones(n, dtype=bool)
    order = np.lexsort((times, nodes))
    sn, st = nodes[order], times[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    boundary[1:] = (sn[1:] != sn[:-1]) | (st[1:] != st[:-1])
    return order, sn, st, boundary


def unique_node_times(nodes: np.ndarray, times: np.ndarray):
    """Unique (node, time) pairs and the inverse map onto the input order.

    Returns ``(uniq_nodes, uniq_times, inverse)`` where
    ``uniq_nodes[inverse] == nodes`` and likewise for times; unique pairs
    are sorted ascending by (node, time), matching ``np.unique`` on a
    structured ``(n, t)`` array.
    """
    n = len(nodes)
    if n == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    order, sn, st, boundary = _sorted_runs(nodes, times)
    group = np.cumsum(boundary) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = group
    return sn[boundary], st[boundary], inverse


def unique_first_last(nodes: np.ndarray, times: np.ndarray):
    """Unique (node, time) pairs with the input positions of their first
    and last occurrence: ``(uniq_nodes, uniq_times, first, last)``.

    The lexsort is stable, so each run of equal pairs lists its input
    positions in ascending order: the run's ends are the occurrences.
    """
    n = len(nodes)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64), empty, empty
    order, sn, st, boundary = _sorted_runs(nodes, times)
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n) - 1
    return sn[starts], st[starts], order[starts], order[ends]


def has_repeats(nodes: np.ndarray) -> bool:
    """Whether a node id repeats; ascending ids (a planned batch) skip the sort."""
    if len(nodes) < 2 or (nodes[1:] > nodes[:-1]).all():
        return False
    return len(np.unique(nodes)) != len(nodes)


def _order_ties_by_bytes(order: np.ndarray, same: np.ndarray, values) -> None:
    """Reorder *order* in place so every (node, time) tie group is byte-sorted.

    *same* marks sorted positions equal to their predecessor on (node,
    time).  Only tied rows are read: a word-wise compare of neighbours
    settles the usual case — every copy identical (a serving batch that
    was replayed or redelivered), nothing to do — and otherwise the tied
    rows are ranked in ``memcmp`` order through a ``np.void`` view.
    """
    rows = np.ascontiguousarray(values).reshape(len(order), -1)
    width = rows.dtype.itemsize * rows.shape[1]
    if not width:
        return
    follows = np.append(False, same)  # row continues its predecessor's tie group
    tied = np.flatnonzero(follows | np.append(same, False))
    tied_rows = rows.view(np.dtype((np.void, width))).ravel()[order[tied]]
    word = next(w for w in (8, 4, 2, 1) if width % w == 0)
    words = tied_rows.view(f"u{word}").reshape(len(tied), -1)
    if ((words[1:] != words[:-1]).any(axis=1) & follows[tied[1:]]).any():
        _, rank = np.unique(tied_rows, return_inverse=True)
        group = np.cumsum(~follows[tied])
        order[tied] = order[tied][np.lexsort((rank.ravel(), group))]


def canonical_event_order(nodes: np.ndarray, times: np.ndarray,
                          values=None) -> np.ndarray:
    """Indices sorting entries by (node, time, raw bytes of the value row).

    The canonical per-node delivery order: ascending timestamps, with
    entries tied on (node, time) in ``memcmp`` order of their value rows
    (exact: byte-equal rows are interchangeable, nothing else is).  Any
    permutation of the same entries sorts to the same row sequence, which
    is what makes multi-slot mailbox delivery replay-deterministic.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    order = np.lexsort((times, nodes))
    if values is not None and len(order) > 1:
        sn, st = nodes[order], times[order]
        same = (sn[1:] == sn[:-1]) & (st[1:] == st[:-1])
        if same.any():
            _order_ties_by_bytes(order, same, values)
    return order


def group_spans(keys: np.ndarray):
    """``(values, starts, stops)`` — as lists — of the runs of equal *keys*
    (sorted, or at least grouped): run ``i`` is ``keys[starts[i]:stops[i]]``."""
    if not len(keys):
        return [], [], []
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    return keys[starts].tolist(), starts.tolist(), starts[1:].tolist() + [len(keys)]


def last_event_wins(nodes: np.ndarray, times: np.ndarray, values=None):
    """Select one winning entry per unique node: last event wins.

    Returns ``(uniq_nodes, winner_idx)`` where ``winner_idx[i]`` indexes
    the input entry that wins for ``uniq_nodes[i]``: the entry with the
    greatest timestamp, ties on (node, time) broken by the value row's
    raw bytes (see :func:`canonical_event_order`).  The winning *row* is
    the same for every input order; entries equal on all three keys are
    byte-identical, so which of them is indexed does not matter.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    n = len(nodes)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = canonical_event_order(nodes, times, values)
    sn = nodes[order]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = sn[1:] != sn[:-1]
    return sn[last], order[last]


def _reference_unique_node_times(nodes: np.ndarray, times: np.ndarray):
    """Structured-dtype ``np.unique`` implementation (pre-kernel path).

    Kept only for the equivalence tests and the microbenchmark.
    """
    pairs = np.empty(len(nodes), dtype=[("n", np.int64), ("t", np.float64)])
    pairs["n"] = nodes
    pairs["t"] = times
    uniq, inverse = np.unique(pairs, return_inverse=True)
    return uniq["n"].copy(), uniq["t"].copy(), inverse.astype(np.int64)
