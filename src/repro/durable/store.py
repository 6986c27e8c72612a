"""Crash-consistent durable state store: WAL-then-apply + snapshot replay.

:class:`DurableStateStore` composes the :class:`~repro.durable.wal.WriteAheadLog`
and the snapshot files into the commit protocol every serving process shares:

1. **log** the state delta (a checked :class:`~repro.core.TBatch`) *before*
   applying it in RAM — callers check a delta before logging it, so a
   logged record is never taken back;
2. periodically write a **snapshot** of the full applied state and
   **compact** sealed log segments below it.

Recovery (:meth:`recover`) is prefix-consistent and idempotent: load the
newest intact snapshot, then replay the committed log suffix — stopping
at the first torn/corrupt record.
Re-opening the store after a crash physically truncates the torn tail
(see :mod:`repro.durable.wal`), so two recoveries of the same directory
yield bit-identical state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.stats import declare
from .codec import KIND_BATCH, CodecError, decode_committed, encode_payload
from .snapshot import list_snapshots, load_latest, prune_snapshots, write_snapshot
from .wal import WriteAheadLog

__all__ = ["DurableRecord", "RecoveredState", "DurableStateStore"]


@dataclass(frozen=True)
class DurableRecord:
    """One decoded record of the committed log suffix."""

    lsn: int
    kind: int
    meta: Dict
    arrays: Dict[str, np.ndarray]


@dataclass
class RecoveredState:
    """Everything :meth:`DurableStateStore.recover` reconstructs."""

    #: log position of the loaded snapshot (0 = no snapshot, clean start).
    snapshot_lsn: int = 0
    snapshot_meta: Dict = field(default_factory=dict)
    snapshot_arrays: Optional[Dict[str, np.ndarray]] = None
    #: committed records with ``lsn > snapshot_lsn``, in order.
    records: List[DurableRecord] = field(default_factory=list)

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else self.snapshot_lsn


class DurableStateStore:
    """Write-ahead-logged durable state with snapshot + replay recovery.

    Args:
        directory: home of WAL segments and snapshot files.
        fsync: WAL durability policy (``'always'`` / ``'batch'`` /
            ``'never'``); ``'batch'`` group-commits every
            :attr:`WriteAheadLog.FSYNC_INTERVAL` records.
        counters / prefix: the counter table to count
            ``<prefix>snapshots_written``, ``<prefix>compacted_segments`` and
            the log's ``<prefix>wal:*`` into (a private table when None).
    """

    #: snapshots retained after each :meth:`snapshot`.
    SNAPSHOTS_KEEP = 2

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        counters: Optional[Dict[str, float]] = None,
        prefix: str = "",
    ):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._snapshots = prefix + "snapshots_written"
        #: counter-table key of the sealed segments compaction deleted.
        self.compacted_key = prefix + "compacted_segments"
        self.counters = declare(counters, self._snapshots, self.compacted_key)
        self.wal = WriteAheadLog(
            self.directory, fsync=fsync, counters=self.counters,
            prefix=prefix + "wal:",
        )
        # recovery skips records at or below the newest snapshot's LSN
        snapshots = list_snapshots(self.directory)
        self.wal.resume_after(snapshots[-1][0] if snapshots else 0)

    # ---- logging -----------------------------------------------------------------

    def log_batch(self, arrays: Dict[str, np.ndarray], meta: Optional[Dict] = None) -> int:
        """Log one committed-state delta (WAL-then-apply); returns its LSN."""
        return self.log_encoded(encode_payload(KIND_BATCH, meta or {}, arrays))

    def log_encoded(self, record: bytes) -> int:
        """Append an already-encoded record (a sub-batch shipped to several
        replicas is encoded once); returns its LSN."""
        return self.wal.append(record)

    def sync(self) -> None:
        """Force group-committed records durable now."""
        self.wal.sync()

    # ---- snapshot + compaction ---------------------------------------------------

    def snapshot(self, arrays: Dict[str, np.ndarray], meta: Optional[Dict] = None) -> str:
        """Snapshot the *applied* state at the current log position, then
        compact sealed segments the snapshot makes redundant."""
        self.wal.sync()
        lsn = self.wal.last_lsn
        path = write_snapshot(self.directory, lsn, meta or {}, arrays)
        prune_snapshots(self.directory, keep=self.SNAPSHOTS_KEEP)
        self.compact_below(lsn + 1)
        self.counters[self._snapshots] += 1
        return path

    def compact_below(self, lsn: int) -> int:
        """Delete sealed log segments wholly below *lsn*; returns how many."""
        dropped = self.wal.compact_below(lsn)
        self.counters[self.compacted_key] += dropped
        return dropped

    # ---- recovery ----------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Reconstruct the committed durable state (prefix-consistent).

        Pure read: loads the newest intact snapshot and decodes the
        committed log suffix above it.  Calling it twice returns
        identical results.
        """
        out = RecoveredState()
        snap = load_latest(self.directory)
        if snap is not None:
            out.snapshot_lsn, out.snapshot_meta, out.snapshot_arrays = snap
        for lsn, payload in self.wal.replay():
            if lsn <= out.snapshot_lsn:
                continue  # already folded into the snapshot
            try:
                kind, meta, arrays = decode_committed(payload, lsn, self.directory)
            except CodecError:
                break  # defensive: treat as the start of the torn tail
            out.records.append(DurableRecord(lsn, kind, meta, arrays))
        return out

    # ---- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableStateStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableStateStore({self.directory!r}, last_lsn={self.wal.last_lsn}, "
            f"segments={self.wal.num_segments})"
        )
