"""Canonical content digests and chunked merkle summaries over state tables.

The cluster's replication guarantee (PR 8/9) is *bit-identity by
construction*: every member of a replica group applies the same committed
sub-batches through the same deterministic kernels.  This module turns
that property into something checkable at runtime:

* :func:`array_digest` — a stable sha256 over canonically-encoded arrays
  (dtype tag + shape + C-contiguous bytes), so two states hash equal iff
  they are bit-identical.  ``Memory.state_digest()`` and
  ``Mailbox.state_digest()`` are thin wrappers over it.
* :class:`ChunkedDigest` — per-chunk digests over fixed row ranges of a
  state table, *maintained* on the write path: after each filtered apply
  the touched chunks are re-hashed (O(dirty rows)), so the maintained
  digests always record what the WAL-then-apply protocol produced.  A
  later recompute that disagrees with the maintained digest is evidence
  of out-of-band mutation (a flipped bit, rotted RAM) — the maintained
  digests are tamper-evident because silent corruption by definition
  bypasses the write path that updates them.
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
]

#: digest of an empty leaf list (a zero-row table still has a root).
_EMPTY_ROOT = hashlib.sha256(b"merkle:empty").hexdigest()


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
    """Maintained per-chunk sha256 digests over row ranges of a table.

    Args:
        reader: ``reader(lo, hi)`` returns the array slices covering rows
            ``[lo, hi)`` of the table (e.g. memory vectors + update
            times).  Called at refresh time, so it must read the *live*
            backing arrays, not a snapshot.
        num_rows: table height; chunk ``c`` covers rows
            ``[c * chunk_rows, min(num_rows, (c + 1) * chunk_rows))``.
        chunk_rows: rows per chunk (the divergence-localization grain).

    :attr:`digests` holds the **maintained** (expected) digests: callers
    refresh the touched chunks immediately after every legitimate write
    (:meth:`record_rows`), which keeps maintenance O(dirty rows).
    :meth:`compute` re-hashes the live arrays without touching the
    maintained digests; :meth:`diverged` compares the two.
    """

    def __init__(
        self,
        reader: Callable[[int, int], Iterable[np.ndarray]],
        num_rows: int,
        chunk_rows: int = 32,
    ):
        self._reader = reader
        self.num_rows = int(num_rows)
        self.chunk_rows = max(1, int(chunk_rows))
        self.num_chunks = -(-self.num_rows // self.chunk_rows) if self.num_rows else 0
        # Formatted once, not per refresh: each chunk's row span and
        # ``chunk|c|lo|hi|`` prefix (slice headers: see ``_array_header``).
        self._spans = [(lo, hi, f"chunk|{c}|{lo}|{hi}|".encode())
                       for c, (lo, hi) in enumerate(map(self.rows_of, range(self.num_chunks)))]
        self.digests: List[str] = [self._chunk_digest(c) for c in range(self.num_chunks)]

    # ---- geometry ------------------------------------------------------------------

    def rows_of(self, chunk: int) -> Tuple[int, int]:
        """``[lo, hi)`` row range chunk *chunk* covers."""
        lo = chunk * self.chunk_rows
        return lo, min(self.num_rows, lo + self.chunk_rows)

    def chunks_of(self, rows: np.ndarray) -> np.ndarray:
        """Sorted unique chunk indices containing local row indices *rows*."""
        rows = np.asarray(rows, dtype=np.int64)
        return np.unique(rows // self.chunk_rows)

    # ---- hashing -------------------------------------------------------------------

    def _chunk_digest(self, chunk: int) -> str:
        """``sha256(prefix + canonical_bytes(slice) ...)``, without the copies:
        constant parts come cached, slices reach the hash as buffers."""
        lo, hi, prefix = self._spans[chunk]
        h = hashlib.sha256(prefix)
        for arr in self._reader(lo, hi):
            arr = np.ascontiguousarray(arr)  # a no-op for a slice of a C table
            h.update(_array_header(arr.dtype, arr.shape))
            h.update(arr)
        return h.hexdigest()

    def record_rows(self, rows: np.ndarray,
                    chunks: Optional[np.ndarray] = None) -> np.ndarray:
        """Re-hash the chunks containing *rows* after a legitimate write;
        *chunks* is ``chunks_of(rows)`` when the caller already has it."""
        if chunks is None:
            chunks = self.chunks_of(rows)
        digests = self.digests
        for c in chunks.tolist():
            digests[c] = self._chunk_digest(c)
        return chunks

    def record_all(self) -> None:
        """Re-hash every chunk (wholesale state replacement)."""
        self.digests = [self._chunk_digest(c) for c in range(self.num_chunks)]

    def compute(self, chunks: Optional[Iterable[int]] = None) -> List[str]:
        """Fresh digests of the live arrays; maintained digests untouched.

        With *chunks* given, returns digests for exactly those chunks (in
        the given order); otherwise for all of them.
        """
        targets = range(self.num_chunks) if chunks is None else chunks
        return [self._chunk_digest(int(c)) for c in targets]

    def diverged(self, live: Optional[Sequence[str]] = None) -> List[int]:
        """Chunks whose live content no longer matches the maintained digest.

        A non-empty result is proof of out-of-band mutation: every write
        through the owning replica's apply path refreshed its chunks.
        *live* (a precomputed :meth:`compute` result) avoids re-hashing.
        """
        fresh = self.compute() if live is None else list(live)
        if merkle_root(fresh) == self.root():
            return []
        return merkle_diff(fresh, self.digests)

    def root(self) -> str:
        """Merkle root over the maintained chunk digests."""
        return merkle_root(self.digests)
