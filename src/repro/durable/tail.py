"""Prefix-consistent tailing reads over a live write-ahead log.

:class:`WALCursor` is an independent, read-only follower of a WAL
directory that some other component (the serving runtime's
:class:`~repro.serve.StateCommitter`) is actively appending to.  It is
the transport of the serve→train loop: the continual learner polls the
cursor for newly *committed* event batches and never touches the
writer's file handles or in-memory state.

Guarantees (tested in ``tests/test_durable.py``):

* **Prefix consistency.**  :meth:`poll` only ever delivers records from
  the committed prefix as defined by :func:`repro.durable.wal.parse_segment`
  — the same definition the owning log uses for recovery.  A torn frame,
  CRC failure, or LSN hole stops the scan; nothing at or past the damage
  is delivered, and the next poll retries from the cursor position.
* **Monotonic, gap-free delivery.**  Records are delivered exactly once,
  in strictly increasing LSN order, with no holes (a hole would mean the
  cursor skipped a committed record).
* **Restartability.**  Cursor position is persisted (atomic tmp + rename
  + directory fsync) to ``cursor-<name>.json`` in the log directory; a
  restarted reader resumes exactly after the last delivered record.
* **Timeline-change detection.**  A reader can observe flushed bytes
  that were never fsynced; if the writer then crashes with a lost fsync,
  those LSNs are reissued with different content on restart.  The cursor
  stores the CRC of its last delivered record and re-verifies it against
  the log every poll — a mismatch (or the record vanishing entirely)
  raises :class:`CursorInvalidated` instead of silently delivering a
  forked history.  :meth:`reset` rewinds for redelivery after the caller
  has discarded derived state.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from .codec import KIND_BATCH, CodecError, decode_committed
from .store import DurableRecord
from .wal import fsync_dir, list_segment_files, parse_segment, read_segment_bytes

__all__ = ["CursorInvalidated", "WALCursor", "read_batch_suffix"]


def _scan(directory: str, inject: bool) -> List[Tuple[int, bytes, int]]:
    """``(lsn, payload, crc)`` of the committed prefix of all live segments.

    Mirrors :meth:`WriteAheadLog.replay`: segments in sequence order,
    LSN continuity threaded across boundaries, scan stopped at the
    first non-intact segment.
    """
    records: List[Tuple[int, bytes, int]] = []
    prev: Optional[int] = None
    for _, path in list_segment_files(directory):
        try:
            buf = read_segment_bytes(path, inject)
        except OSError:
            break  # segment vanished mid-scan (compaction race)
        segment_records, _, intact, last = parse_segment(buf, prev)
        records.extend(segment_records)
        if not intact:
            break
        prev = last if last is not None else prev
    return records


def read_batch_suffix(directory: str, after_seq: int) -> List[DurableRecord]:
    """One-shot catch-up read: committed batch records past *after_seq*.

    Used by replica-group promotion as the WAL-backstop for follower
    catch-up — a newly promoted primary reads the fenced ex-primary's log
    directory and replays any ``KIND_BATCH`` record whose commit sequence
    (``meta['seq']``) it has not yet applied.  Pure read over the
    committed prefix (same :func:`parse_segment` definition the owner
    uses); delivery is in seq order, and records without a seq are
    skipped.  Unlike :class:`WALCursor` this keeps no persistent
    position — the caller's own ``last_seq`` is the cursor — and no
    ``disk.read`` fault is injected into it.
    """
    out: List[DurableRecord] = []
    for lsn, payload, _ in _scan(directory, inject=False):
        try:
            kind, meta, arrays = decode_committed(payload, lsn, directory)
        except CodecError:
            break  # committed prefix ends just before the damage
        if kind == KIND_BATCH and int(meta.get("seq", -1)) > int(after_seq):
            out.append(DurableRecord(lsn=lsn, kind=kind, meta=meta, arrays=arrays))
    out.sort(key=lambda r: int(r.meta["seq"]))
    return out


class CursorInvalidated(RuntimeError):
    """The log's history diverged from what this cursor already delivered.

    Raised when the record at the cursor's position disappeared or
    changed content (LSN reuse after a lost-fsync crash), or when
    compaction deleted segments past the cursor.  The reader must
    discard state derived from undelivered records and :meth:`reset`.
    """


class WALCursor:
    """Persistent, restartable tailing cursor over a WAL directory.

    Args:
        directory: the log directory some :class:`WriteAheadLog` owns.
        name: distinguishes multiple independent cursors on one log;
            state lives in ``cursor-<name>.json``.

    Reads go through the ``disk.read`` fault site (same as owner-side
    replay), so injected read corruption is subject to the
    prefix-consistency guarantee, not hidden from it.
    """

    def __init__(self, directory: str, name: str = "tail"):
        self.directory = os.path.abspath(directory)
        self.name = str(name)
        self.state_path = os.path.join(self.directory, f"cursor-{self.name}.json")
        #: LSN of the last record delivered to the caller (0 = none yet).
        self.last_lsn = 0
        #: frame CRC of that record, for timeline-change detection.
        self.last_crc: Optional[int] = None
        self.delivered = 0
        self.polls = 0
        self._load_state()

    # ---- persistent state --------------------------------------------------------

    def _load_state(self) -> None:
        try:
            with open(self.state_path, "r", encoding="utf-8") as fh:
                state = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError):
            # A torn cursor file only costs redelivery, never correctness:
            # fall back to the log's beginning.
            return
        self.last_lsn = int(state.get("last_lsn", 0))
        crc = state.get("last_crc")
        self.last_crc = int(crc) if crc is not None else None
        self.delivered = int(state.get("delivered", 0))

    def _save_state(self) -> None:
        tmp = self.state_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "name": self.name,
                    "last_lsn": int(self.last_lsn),
                    "last_crc": self.last_crc,
                    "delivered": int(self.delivered),
                },
                fh,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.state_path)
        fsync_dir(self.directory)

    def _check_timeline(self, records: List[Tuple[int, bytes, int]]) -> None:
        if self.last_lsn == 0:
            return
        by_lsn = {lsn: crc for lsn, _, crc in records}
        crc = by_lsn.get(self.last_lsn)
        if crc is None:
            if records and records[0][0] > self.last_lsn:
                # Compaction deleted the cursor's segment: position still
                # meaningful but history before the remaining log is gone.
                raise CursorInvalidated(
                    f"log compacted past cursor {self.name!r}: first live "
                    f"record is lsn {records[0][0]}, cursor at {self.last_lsn}"
                )
            raise CursorInvalidated(
                f"record lsn {self.last_lsn} delivered by cursor "
                f"{self.name!r} no longer exists (lost-fsync timeline change)"
            )
        if self.last_crc is not None and crc != self.last_crc:
            raise CursorInvalidated(
                f"record lsn {self.last_lsn} changed content under cursor "
                f"{self.name!r} (crc {crc:#x} != {self.last_crc:#x}): the "
                "log restarted on a divergent timeline"
            )

    # ---- polling -----------------------------------------------------------------

    def poll(self) -> List[DurableRecord]:
        """Deliver newly committed records past the cursor, advancing it.

        Everything up to the newest committed record is delivered: the
        writers check a batch before they log it, so no later record can
        take a logged one back.  Raises :class:`CursorInvalidated` on
        history divergence (see class doc).
        """
        self.polls += 1
        records = _scan(self.directory, inject=True)
        self._check_timeline(records)
        out: List[DurableRecord] = []
        last_crc = self.last_crc
        for lsn, payload, crc in records:
            if lsn <= self.last_lsn:
                continue
            try:
                kind, meta, arrays = decode_committed(payload, lsn, self.directory)
            except CodecError:
                # Framing CRC passed but the payload is junk: treat the
                # damage like any other corruption — stop the committed
                # prefix just before it.
                break
            out.append(DurableRecord(lsn=lsn, kind=kind, meta=meta, arrays=arrays))
            last_crc = crc
        if out:
            self.last_lsn, self.last_crc = out[-1].lsn, last_crc
            self.delivered += len(out)
            self._save_state()
        return out

    def reset(self, to_lsn: int = 0) -> None:
        """Rewind to *to_lsn* (0 = log start), forgetting delivery history.

        The next :meth:`poll` redelivers everything past *to_lsn*; the
        caller owns deduplication of anything it already consumed.
        """
        self.last_lsn = int(to_lsn)
        self.last_crc = None
        self._save_state()

    def position(self) -> Dict:
        """Cursor position and counters (for stats / debugging)."""
        return {
            "name": self.name,
            "last_lsn": self.last_lsn,
            "delivered": self.delivered,
            "polls": self.polls,
        }

    def __repr__(self) -> str:
        return (
            f"WALCursor({self.directory!r}, name={self.name!r}, "
            f"last_lsn={self.last_lsn}, delivered={self.delivered})"
        )
