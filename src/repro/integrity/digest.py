"""Canonical content digests and chunked merkle summaries over state tables.

The cluster's replication guarantee (PR 8/9) is *bit-identity by
construction*: every member of a replica group applies the same committed
sub-batches through the same deterministic kernels.  This module turns
that property into something checkable at runtime:

* :func:`array_digest` — a stable sha256 over canonically-encoded arrays
  (dtype tag + shape + C-contiguous bytes), so two states hash equal iff
  they are bit-identical.  ``Memory.state_digest()`` and
  ``Mailbox.state_digest()`` are thin wrappers over it.
* :func:`row_leaves` — one sha256 leaf per row over the row's bytes in
  each of several tables, the unit every digest below is built from.
* :class:`ChunkedDigest` — one sha256 leaf per row of a state table,
  rolled up into per-chunk digests over fixed row ranges, *maintained* on
  the write path: every legitimate write records its rows' leaves
  (O(written rows)), so the maintained digests always record what the
  WAL-logged write puts in the rows — for a replica apply, leaves hashed
  once per replica group from the logged plan, which is exactly what a
  replay of the log produces.  A later recompute that disagrees with the
  maintained digest is evidence of out-of-band mutation (a flipped bit,
  rotted RAM, a write that landed other bytes than the log says) — the
  maintained digests are tamper-evident because such corruption by
  definition bypasses the write path that records them.
* :func:`merkle_root` / :func:`merkle_diff` — roll chunk digests into a
  merkle tree so a scrubber can compare two summaries root-first and
  descend only into differing subtrees to localize divergence to a chunk.

No imports from the rest of the package: ``repro.core`` and
``repro.store`` may depend on this module freely.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "array_digest",
    "canonical_bytes",
    "ChunkedDigest",
    "merkle_root",
    "merkle_diff",
    "row_leaves",
]

#: digest of an empty leaf list (a zero-row table still has a root).
_EMPTY_ROOT = hashlib.sha256(b"merkle:empty").hexdigest()
#: one whole sha256 leaf as a single array element.
_LEAF = np.dtype("V32")


def canonical_bytes(array: np.ndarray) -> bytes:
    """Canonical encoding of one array: dtype tag, shape, then raw bytes.

    The dtype string pins byte order and width and the shape prefix keeps
    ``(2, 3)`` and ``(3, 2)`` tables with equal bytes from colliding, so
    equal encodings imply bit-identical arrays.
    """
    arr = np.ascontiguousarray(array)
    return _array_header(arr.dtype, arr.shape) + arr.tobytes()


@lru_cache(maxsize=256)
def _array_header(dtype: np.dtype, shape: Tuple[int, ...]) -> bytes:
    """The ``dtype|shape|`` tag :func:`canonical_bytes` puts before the bytes."""
    return f"{dtype.str}|{','.join(str(s) for s in shape)}|".encode()


def array_digest(*arrays: np.ndarray) -> str:
    """Stable sha256 hex digest over canonically-encoded *arrays*."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(canonical_bytes(np.asarray(arr)))
    return h.hexdigest()


def row_leaves(*tables: np.ndarray) -> np.ndarray:
    """``(n, 32)`` uint8 sha256 leaves of the ``n`` rows of *tables*: leaf
    ``i`` hashes row ``i``'s bytes in each table, in table order (one pack,
    then one tight loop over the packed rows)."""
    n = len(tables[0])
    if not n:
        return np.empty((0, 32), dtype=np.uint8)
    packed = np.concatenate(
        [np.ascontiguousarray(t).reshape(n, -1).view(np.uint8) for t in tables], axis=1)
    sha256 = hashlib.sha256
    return np.frombuffer(
        b"".join([sha256(row).digest() for row in packed]), dtype=np.uint8
    ).reshape(n, 32)


def merkle_root(leaves: Sequence[str]) -> str:
    """Root of the binary merkle tree over hex-digest *leaves*."""
    return _levels(leaves)[-1][0].hex() if leaves else _EMPTY_ROOT


def _levels(leaves: Sequence[str]) -> List[List[bytes]]:
    """All tree levels, leaves first (an odd node is paired with itself)."""
    level = [bytes.fromhex(leaf) for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            right = level[i + 1] if i + 1 < len(level) else level[i]
            nxt.append(hashlib.sha256(level[i] + right).digest())
        level = nxt
        levels.append(level)
    return levels


def merkle_diff(a: Sequence[str], b: Sequence[str]) -> List[int]:
    """Leaf indices where *a* and *b* disagree, found by merkle descent.

    Builds both trees and walks from the roots, descending only into
    subtrees whose node hashes differ — the scrubber's localization step:
    one corrupt chunk costs O(log n) comparisons below the root instead
    of a full leaf-by-leaf sweep.  Length mismatches (a re-sharded member
    mid-hand-off) report every leaf of the shorter summary as suspect.
    """
    if len(a) != len(b):
        return list(range(min(len(a), len(b)) or max(len(a), len(b))))
    if not a:
        return []
    la, lb = _levels(a), _levels(b)
    out: List[int] = []
    stack: List[Tuple[int, int]] = [(len(la) - 1, 0)]
    while stack:
        lvl, idx = stack.pop()
        if la[lvl][idx] == lb[lvl][idx]:
            continue
        if lvl == 0:
            out.append(idx)
            continue
        below = len(la[lvl - 1])
        for child in (2 * idx, 2 * idx + 1):
            if child < below:
                stack.append((lvl - 1, child))
    return sorted(out)


class ChunkedDigest:
    """Maintained sha256 digests of a table: a leaf per row, a rollup per chunk.

    Args:
        tables: ``tables()`` returns the *live* arrays of the table (e.g.
            memory vectors + update times), each indexed by row.
        num_rows: table height; chunk ``c`` covers rows
            ``[c * CHUNK_ROWS, min(num_rows, (c + 1) * CHUNK_ROWS))``.

    **Format.**  A leaf is sha256 of the row's bytes in each table, in
    table order; a chunk digest is ``sha256(chunk|c|lo|hi| + row schema +
    leaves[lo:hi])``, the schema being each table's ``dtype|row shape|``.
    :attr:`leaves` are the **maintained** (expected) leaves: what every
    legitimate write says it put in its rows, recorded with the write
    (:meth:`record_rows`) — either leaves the writer hashed from the rows
    it was told to write (a replica apply hashes its logged plan once per
    group), or, without them, a re-hash of the live rows just written.
    Maintenance hashes rows written, not the chunks around them.
    :attr:`digests` and :meth:`root` roll them up when read;
    :meth:`compute` re-hashes the live arrays and touches nothing
    maintained; :meth:`diverged` compares the two.
    """

    #: rows per chunk (the divergence-localization grain).
    CHUNK_ROWS = 32

    def __init__(self, tables: Callable[[], Sequence[np.ndarray]], num_rows: int):
        self._tables = tables
        self.num_rows = int(num_rows)
        self.num_chunks = -(-self.num_rows // self.CHUNK_ROWS) if self.num_rows else 0
        # Formatted once: each chunk's row span and its digest's constant head.
        schema = b"".join(_array_header(t.dtype, t.shape[1:]) for t in tables())
        self._spans = [(lo, hi, f"chunk|{c}|{lo}|{hi}|".encode() + schema)
                       for c, (lo, hi) in enumerate(map(self.rows_of, range(self.num_chunks)))]
        self.leaves = self._row_leaves(np.arange(self.num_rows)).copy()  # writable
        # The same memory as one 32-byte cell per row: recording leaves is
        # then a 1-D copy, several times cheaper than a 2-D uint8 one.
        self._cells = self.leaves.view(_LEAF)[:, 0]
        self._digests: List[str] = [""] * self.num_chunks
        self._dirty = set(range(self.num_chunks))  # chunks whose rollup is behind its leaves

    # ---- geometry ------------------------------------------------------------------

    def rows_of(self, chunk: int) -> Tuple[int, int]:
        """``[lo, hi)`` row range chunk *chunk* covers."""
        lo = chunk * self.CHUNK_ROWS
        return lo, min(self.num_rows, lo + self.CHUNK_ROWS)

    def rows_in(self, chunks: Iterable[int]) -> np.ndarray:
        """Every row index *chunks* cover, chunk by chunk in the given order."""
        spans = [np.arange(*self.rows_of(int(c)), dtype=np.int64) for c in chunks]
        return np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)

    def chunks_of(self, rows: np.ndarray) -> np.ndarray:
        """Sorted unique chunk indices containing local row indices *rows*."""
        return self.chunk_lists(rows, [len(rows)])[0]

    @classmethod
    def chunk_lists(cls, rows: np.ndarray, stops: Sequence[int]) -> List[np.ndarray]:
        """:meth:`chunks_of` of each run ``rows[stops[i - 1]:stops[i]]``
        (the first from 0), for every run in one ``bincount`` of
        ``(run, chunk)`` keys."""
        chunks = np.asarray(rows, dtype=np.int64) // cls.CHUNK_ROWS
        width = int(chunks.max()) + 1 if len(chunks) else 1
        starts = [0, *stops[:-1]]
        runs = np.repeat(np.arange(0, len(stops) * width, width),
                         [b - a for a, b in zip(starts, stops)])
        keys = np.flatnonzero(np.bincount(runs + chunks, minlength=1))
        cuts = np.searchsorted(keys, np.arange(0, len(stops) * width + 1, width)).tolist()
        keys %= width
        return [keys[a:b] for a, b in zip(cuts, cuts[1:])]

    # ---- hashing -------------------------------------------------------------------

    def _row_leaves(self, rows: np.ndarray) -> np.ndarray:
        """Fresh ``(n, 32)`` uint8 leaves of *rows* of the live tables."""
        return row_leaves(*(t[rows] for t in self._tables()))

    def _rollup(self, chunk: int, leaves: np.ndarray) -> str:
        """Digest of *chunk* from its rows' *leaves*."""
        return hashlib.sha256(self._spans[chunk][2] + leaves.tobytes()).hexdigest()

    @property
    def digests(self) -> List[str]:
        """The maintained chunk digests, rolled up from the maintained leaves."""
        for c in self._dirty:
            lo, hi, _ = self._spans[c]
            self._digests[c] = self._rollup(c, self.leaves[lo:hi])
        self._dirty.clear()
        return self._digests

    def record_rows(self, rows: np.ndarray,
                    chunks: Optional[np.ndarray] = None,
                    leaves: Optional[np.ndarray] = None) -> np.ndarray:
        """Record the leaves of *rows* after a legitimate write; returns the
        chunks covering them (*chunks*, when the caller has ``chunks_of(rows)``).

        *leaves* (``row_leaves`` of the rows the write was told to store,
        in the tables' dtypes) are copied in as the maintained leaves;
        without them the live rows are re-hashed.
        """
        if chunks is None:
            chunks = self.chunks_of(rows)
        if leaves is None:
            leaves = self._row_leaves(rows)
        self._cells[rows] = leaves.view(_LEAF).ravel()
        self._dirty.update(chunks.tolist())
        return chunks

    def compute(self, chunks: Optional[Iterable[int]] = None) -> List[str]:
        """Fresh digests of the live arrays — of exactly *chunks*, in the given
        order, when given — their rows hashed in one gather."""
        targets = [int(c) for c in (range(self.num_chunks) if chunks is None else chunks)]
        leaves = self._row_leaves(self.rows_in(targets))
        out, at = [], 0
        for c in targets:
            lo, hi, _ = self._spans[c]
            out.append(self._rollup(c, leaves[at:at + hi - lo]))
            at += hi - lo
        return out

    def stale(self, chunks: Iterable[int]) -> List[int]:
        """Those of *chunks* whose live rows no longer match the maintained digest."""
        chunks, kept = [int(c) for c in chunks], self.digests
        return [c for c, live in zip(chunks, self.compute(chunks)) if live != kept[c]]

    def diverged(self, live: Optional[Sequence[str]] = None) -> List[int]:
        """Chunks whose live content no longer matches the maintained digest.

        A non-empty result is proof of out-of-band mutation: every write
        through the owning replica's apply path refreshed its rows' leaves.
        *live* (a precomputed :meth:`compute` result) avoids re-hashing.
        """
        fresh = self.compute() if live is None else list(live)
        if merkle_root(fresh) == self.root():
            return []
        return merkle_diff(fresh, self.digests)

    def root(self) -> str:
        """Merkle root over the maintained chunk digests."""
        return merkle_root(self.digests)
