"""End-to-end state integrity: digests, anti-entropy scrubbing, repair.

``repro.integrity`` makes the replication layer's bit-identity guarantee
self-checking at runtime:

* :mod:`~repro.integrity.digest` — canonical sha256 array digests,
  maintained per-chunk digests (O(dirty rows) on write), merkle rollup
  and descent.
* :mod:`~repro.integrity.scrubber` — the background :class:`Scrubber`
  that detects, localizes, arbitrates, repairs, and verifies divergence
  across replica groups and their WAL segments.
* :mod:`~repro.integrity.errors` — structured
  :class:`IntegrityUnrepairable` raised when no trustworthy repair
  source exists.
"""

from .digest import (
    ChunkedDigest,
    array_digest,
    canonical_bytes,
    merkle_diff,
    merkle_root,
    row_leaves,
)
from .errors import IntegrityError, IntegrityUnrepairable
from .scrubber import Scrubber

__all__ = [
    "ChunkedDigest",
    "IntegrityError",
    "IntegrityUnrepairable",
    "Scrubber",
    "array_digest",
    "canonical_bytes",
    "merkle_diff",
    "merkle_root",
    "row_leaves",
]
