"""Structured integrity errors, importable without the scrubber."""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["IntegrityError", "IntegrityUnrepairable"]


class IntegrityError(RuntimeError):
    """Base class for state-integrity failures."""


class IntegrityUnrepairable(IntegrityError):
    """Corruption was detected but no trustworthy repair source exists.

    Raised instead of silently serving (or re-replicating) bad rows when
    arbitration fails: no digest quorum, the primary-authority fallback
    is itself the corrupted member, and the member's own durable evidence
    (snapshot + WAL suffix) is missing, damaged, or short of its applied
    sequence.  The structured fields say exactly what could not be fixed.
    """

    def __init__(
        self,
        message: str,
        *,
        component: str = "",
        shard: Optional[int] = None,
        member: Optional[int] = None,
        chunks: Sequence[int] = (),
        rows: int = 0,
    ):
        super().__init__(message)
        self.component = component
        self.shard = shard
        self.member = member
        self.chunks = tuple(int(c) for c in chunks)
        self.rows = int(rows)
