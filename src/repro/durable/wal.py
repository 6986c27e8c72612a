"""Append-only write-ahead log with CRC framing and torn-tail recovery.

The :class:`WriteAheadLog` is the durability primitive under both
runtimes: every state change is appended as a length-prefixed,
CRC32-protected record *before* it is applied, so a process killed at
any byte offset recovers to a consistent committed prefix.

**On-disk format.**  The log is a directory of segment files
(``wal-00000001.log``, …), each starting with a 16-byte header
(``TGLITEWAL001`` magic + u32 version).  A record is::

    u32  length            # of body = 8 (lsn) + len(payload)
    u32  crc32(body)
    u64  lsn               # strictly increasing, log-wide
    ...  payload

**Recovery.**  :meth:`replay` scans segments in order and yields
``(lsn, payload)`` for the *committed prefix*: it stops at the first
record that is torn (fewer bytes than its length claims), fails its CRC
(bit flip, corrupted length), or breaks the LSN sequence (a hole from a
lost fsync).  A record whose LSN repeats the previous one (a duplicated
tail from a retried write) is skipped, not fatal.  Opening the log
repairs it physically — the torn tail is truncated and orphaned later
segments are deleted — so re-opening is idempotent and new appends never
interleave with garbage.

**Durability policy.** ``fsync='always'`` syncs every append;
``'batch'`` (group commit) syncs every ``FSYNC_INTERVAL`` appends and on
rotation/close, trading a bounded tail-loss window for ~10x cheaper
appends; ``'never'`` leaves syncing to the OS.  Every append is flushed
to the OS regardless, so only a machine-level crash (or the injected
``disk.fsync`` lost-sync fault) can lose the window.

**Fault injection.**  All writes consult the ``disk.write`` site and all
fsyncs the ``disk.fsync`` site (:mod:`repro.resilience.hooks`); replay
reads consult ``disk.read``.  Directives simulate torn writes at an
arbitrary byte offset, silent bit flips, duplicated tail records, and
lost fsyncs followed by a crash (:class:`SimulatedDiskCrash`).
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.stats import declare
from ..resilience.errors import SimulatedDiskCrash
from ..resilience.hooks import poke as _poke

__all__ = [
    "WriteAheadLog",
    "fsync_dir",
    "list_segment_files",
    "read_segment_bytes",
    "parse_segment",
]

MAGIC = b"TGLITEWAL001"
VERSION = 1
_HEADER = MAGIC + struct.pack("<I", VERSION)
_HEADER_SIZE = len(_HEADER)  # 16
_FRAME = struct.Struct("<II")  # length, crc32
_LSN = struct.Struct("<Q")
#: hard upper bound on one record body; anything larger is parse garbage.
MAX_RECORD_BYTES = 1 << 30
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

_FSYNC_POLICIES = ("always", "batch", "never")


def list_segment_files(directory: str) -> List[Tuple[int, str]]:
    """Return ``(seq, path)`` for every segment file in *directory*, sorted.

    Shared by the owning :class:`WriteAheadLog` and independent readers
    (:class:`repro.durable.tail.WALCursor`) so both agree on what the log
    physically consists of.
    """
    out = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        m = _SEGMENT_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    return sorted(out)


def read_segment_bytes(path: str, inject: bool) -> bytes:
    """Read one segment file, optionally through the ``disk.read`` site."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if inject and len(buf):
        directive = _poke("disk.read", path=path, size=len(buf))
        if directive is not None and directive[0] == "flip":
            ba = bytearray(buf)
            ba[directive[1] % len(ba)] ^= 1 << directive[2]
            buf = bytes(ba)
    return buf


def parse_segment(
    buf: bytes, prev_lsn: Optional[int]
) -> Tuple[List[Tuple[int, bytes, int]], int, bool, Optional[int]]:
    """Parse one segment buffer's committed prefix.

    Returns ``(records, valid_end, intact, last_lsn)`` where ``records``
    are the valid ``(lsn, payload, crc)`` triples, ``valid_end`` is the
    byte offset just past the last valid record (0 when the header itself
    is bad), and ``intact`` says the whole buffer parsed.  Parsing stops
    — without raising — at the first torn frame, CRC mismatch, nonsense
    length, or LSN hole; a record repeating the previous LSN (duplicated
    tail from a retried write) is skipped, not fatal.  This is the one
    shared definition of "committed prefix" used by the owning
    :class:`WriteAheadLog` and by independent tailing readers.
    """
    if len(buf) < _HEADER_SIZE or buf[:_HEADER_SIZE] != _HEADER:
        return [], 0, False, prev_lsn
    records: List[Tuple[int, bytes, int]] = []
    pos = _HEADER_SIZE
    valid_end = pos
    last = prev_lsn
    while pos < len(buf):
        if pos + _FRAME.size > len(buf):
            break  # torn frame header
        length, crc = _FRAME.unpack_from(buf, pos)
        if length < _LSN.size or length > MAX_RECORD_BYTES:
            break  # nonsense length (corruption)
        if pos + _FRAME.size + length > len(buf):
            break  # torn body
        body = buf[pos + _FRAME.size : pos + _FRAME.size + length]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            break  # bit flip / corrupted frame
        (lsn,) = _LSN.unpack_from(body)
        pos += _FRAME.size + length
        if last is not None and lsn == last:
            valid_end = pos  # duplicated tail record: skip, keep going
            continue
        if last is not None and lsn != last + 1:
            # LSN hole: an earlier record never became durable (lost
            # fsync) — everything from here on is not a valid prefix.
            pos -= _FRAME.size + length
            break
        records.append((lsn, body[_LSN.size :], crc))
        last = lsn
        valid_end = pos
    return records, valid_end, pos >= len(buf), last


def fsync_dir(path: str) -> bool:
    """fsync a directory so renames/creates/unlinks inside it are durable.

    Returns False (instead of raising) on platforms where directories
    cannot be opened or synced — the write itself already succeeded, and
    there is no portable fallback beyond hoping the OS flushes soon.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


#: the log's counters; ``repaired_bytes`` is torn tail truncated and
#: ``repaired_segments`` orphaned segment files deleted by open-time repair.
WAL_COUNTERS = ("appends", "bytes_appended", "syncs", "rotations",
                "repaired_bytes", "repaired_segments")


@dataclass
class _Segment:
    path: str
    seq: int
    first_lsn: Optional[int]  # None for an empty segment
    last_lsn: Optional[int]


class WriteAheadLog:
    """Append-only, segment-rotated, CRC-framed durable log.

    Args:
        directory: where segment files live (created if missing).
        fsync: ``'always'`` | ``'batch'`` | ``'never'`` (see module doc).
        counters / prefix: the counter table to count
            ``<prefix><name>`` into, one key per :data:`WAL_COUNTERS` name
            (a private table when None).
    """

    #: rotate to a fresh segment once the current one exceeds this size.
    SEGMENT_BYTES = 1 << 20
    #: appends per group-commit sync under ``'batch'``.
    FSYNC_INTERVAL = 32

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        counters: Optional[Dict[str, float]] = None,
        prefix: str = "wal:",
    ):
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}")
        self.directory = os.path.abspath(directory)
        self.fsync = fsync
        #: counter-table key of each :data:`WAL_COUNTERS` name.
        self.key = {name: prefix + name for name in WAL_COUNTERS}
        self.counters = declare(counters, *self.key.values())
        self.last_lsn = 0
        self._segments: List[_Segment] = []
        self._fh = None
        self._size = 0  # bytes written to the current segment
        self._synced_size = 0  # durable prefix of the current segment
        self._appends_since_sync = 0
        self._dead = False
        os.makedirs(self.directory, exist_ok=True)
        self._open_and_repair()

    # ---- opening / repair --------------------------------------------------------

    def _open_and_repair(self) -> None:
        """Scan existing segments, truncate the torn tail, open for append."""
        prev_lsn: Optional[int] = None
        keep: List[_Segment] = []
        cut = False
        for seq, path in list_segment_files(self.directory):
            if cut:
                os.remove(path)
                self.counters[self.key["repaired_segments"]] += 1
                continue
            size = os.path.getsize(path)
            records, valid_end, intact, last = parse_segment(
                read_segment_bytes(path, inject=False), prev_lsn
            )
            if not intact:
                cut = True
                if valid_end == 0:
                    # Header itself is invalid: the whole file is garbage.
                    os.remove(path)
                    self.counters[self.key["repaired_segments"]] += 1
                    self.counters[self.key["repaired_bytes"]] += size
                    continue
                with open(path, "r+b") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
                self.counters[self.key["repaired_bytes"]] += size - valid_end
            first = records[0][0] if records else None
            keep.append(_Segment(path, seq, first, records[-1][0] if records else None))
            if records:
                prev_lsn = records[-1][0]
        if cut:
            fsync_dir(self.directory)
        self._segments = keep
        self.last_lsn = prev_lsn or 0
        if self._segments:
            current = self._segments[-1]
            self._fh = open(current.path, "ab")
            self._size = os.path.getsize(current.path)
            self._synced_size = self._size
        else:
            self._create_segment(1)

    def _create_segment(self, seq: int) -> None:
        path = os.path.join(self.directory, f"wal-{seq:08d}.log")
        fh = open(path, "wb")
        fh.write(_HEADER)
        fh.flush()
        os.fsync(fh.fileno())
        fsync_dir(self.directory)
        self._fh = fh
        self._size = _HEADER_SIZE
        self._synced_size = _HEADER_SIZE
        self._segments.append(_Segment(path, seq, None, None))

    # ---- appending ---------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._dead:
            raise RuntimeError(
                "this WriteAheadLog crashed (simulated); construct a new "
                "one over the same directory to recover"
            )
        if self._fh is None:
            raise RuntimeError("WriteAheadLog is closed")

    def append(self, payload: bytes) -> int:
        """Durably append *payload* as the next record; returns its LSN.

        May raise :class:`SimulatedDiskCrash` when the installed fault
        injector tears this write — the on-disk tail then holds a byte
        prefix of the record, which recovery discards.
        """
        self._check_alive()
        lsn = self.last_lsn + 1
        # Frame and LSN go out ahead of the payload, never joined to it: the
        # CRC of ``lsn + payload`` is the payload's, continued from the LSN's.
        lsn_bytes = _LSN.pack(lsn)
        head = _FRAME.pack(
            _LSN.size + len(payload), zlib.crc32(payload, zlib.crc32(lsn_bytes))
        ) + lsn_bytes
        size = len(head) + len(payload)
        if self._size + size > max(self.SEGMENT_BYTES, _HEADER_SIZE + size) \
                and self._size > _HEADER_SIZE:
            self._rotate()
        self._write_record(head, payload)
        self.last_lsn = lsn
        seg = self._segments[-1]
        if seg.first_lsn is None:
            seg.first_lsn = lsn
        seg.last_lsn = lsn
        self.counters[self.key["appends"]] += 1
        self.counters[self.key["bytes_appended"]] += size
        self._appends_since_sync += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self._appends_since_sync >= self.FSYNC_INTERVAL
        ):
            self.sync()
        return lsn

    def _write_record(self, head: bytes, payload: bytes) -> None:
        size = len(head) + len(payload)
        directive = _poke("disk.write", path=self._segments[-1].path, size=size)
        fh = self._fh
        if directive is None:
            fh.write(head)
            fh.write(payload)
            self._size += size
        else:
            data = head + bytes(payload)  # a fault acts on the record in one piece
            if directive[0] == "torn":
                k = int(directive[1])
                fh.write(data[:k])
                fh.flush()
                self._size += k
                self._dead = True
                raise SimulatedDiskCrash(
                    f"torn write: {k}/{size} bytes of record reached "
                    f"{self._segments[-1].path!r} before the crash",
                    path=self._segments[-1].path,
                    offset=self._size,
                )
            if directive[0] == "flip":
                data = bytearray(data)
                data[directive[1] % size] ^= 1 << directive[2]
            copies = 2 if directive[0] == "dup" else 1  # anything else: written cleanly
            fh.write(bytes(data) * copies)
            self._size += copies * size
        fh.flush()  # always reach the OS; fsync policy governs durability

    def sync(self) -> None:
        """fsync the current segment (fault site ``disk.fsync``).

        Under an injected lost-fsync fault, bytes buffered since the last
        durable sync are dropped and :class:`SimulatedDiskCrash` is
        raised — modelling an fsync that reported success without
        persisting, followed by a power cut.
        """
        self._check_alive()
        self._fh.flush()
        directive = _poke("disk.fsync", path=self._segments[-1].path)
        if directive is not None and directive[0] == "lost":
            self._fh.truncate(self._synced_size)
            self._fh.flush()
            self._dead = True
            raise SimulatedDiskCrash(
                f"lost fsync: {self._size - self._synced_size} un-synced "
                f"bytes of {self._segments[-1].path!r} dropped at the crash",
                path=self._segments[-1].path,
                offset=self._synced_size,
            )
        if self.fsync != "never":
            os.fsync(self._fh.fileno())
        self._synced_size = self._size
        self._appends_since_sync = 0
        self.counters[self.key["syncs"]] += 1

    def _rotate(self) -> None:
        """Seal the current segment and start a fresh one."""
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self.counters[self.key["rotations"]] += 1
        self._create_segment(self._segments[-1].seq + 1)
        self._appends_since_sync = 0

    # ---- reading -----------------------------------------------------------------

    def replay(self) -> Iterator[Tuple[int, bytes]]:
        """Yield the committed prefix as ``(lsn, payload)`` pairs.

        Stops (without raising) at the first torn/corrupt record or LSN
        hole; reads go through the ``disk.read`` injection site.
        """
        if self._fh is not None:
            self._fh.flush()
        prev: Optional[int] = None
        for seg in self._segments:
            records, _, intact, last = parse_segment(read_segment_bytes(seg.path, True), prev)
            for lsn, payload, _ in records:
                yield lsn, payload
            if not intact:
                return
            prev = last if last is not None else prev

    def verify(self) -> List[str]:
        """Integrity-check every live segment; returns the damaged paths.

        Re-reads each segment from disk (without fault injection — this
        is the scrubber's ground-truth pass) and parses its committed
        prefix.  A segment whose bytes no longer parse to its full length
        (bit rot, a flipped frame, an LSN hole) is reported damaged.  The
        LSN chain restarts after a damaged segment so one bad segment
        does not implicate every later one.
        """
        if self._fh is not None:
            self._fh.flush()
        prev: Optional[int] = None
        damaged: List[str] = []
        for seg in self._segments:
            _, _, intact, last = parse_segment(read_segment_bytes(seg.path, False), prev)
            if not intact:
                damaged.append(seg.path)
                prev = None
            else:
                prev = last if last is not None else prev
        return damaged

    def rotate(self) -> None:
        """Seal the current segment and start a fresh one.

        Public for integrity repair: re-anchoring a damaged log first
        rotates so the damaged segment is sealed, then snapshots so
        :meth:`compact_below` can delete it.
        """
        self._check_alive()
        self._rotate()

    def segment_paths(self) -> List[str]:
        """Paths of every live segment, the open one flushed first."""
        if self._fh is not None:
            self._fh.flush()
        return [seg.path for seg in self._segments]

    # ---- maintenance -------------------------------------------------------------

    def resume_after(self, lsn: int) -> None:
        """Number the next record above *lsn*, a durable snapshot's position.

        Compaction, or open-time repair cutting the log at damage, can
        leave it ending below that snapshot; the records it still holds
        are folded into the snapshot, so they are dropped and the chain
        restarts.
        """
        if lsn <= self.last_lsn:
            return
        if self.last_lsn:
            self._rotate()
            self.compact_below(lsn + 1)
        self.last_lsn = int(lsn)

    def compact_below(self, lsn: int) -> int:
        """Delete sealed segments whose records all precede *lsn*.

        Returns the number of segments removed.  The open segment is
        never removed; callers take a snapshot first, so dropped records
        are re-derivable from it.
        """
        removed = 0
        while len(self._segments) > 1:
            seg = self._segments[0]
            if seg.last_lsn is None or seg.last_lsn >= lsn:
                break
            os.remove(seg.path)
            self._segments.pop(0)
            removed += 1
        if removed:
            fsync_dir(self.directory)
        return removed

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def size_bytes(self) -> int:
        """Total on-disk size of all live segments."""
        total = 0
        for seg in self._segments:
            if os.path.exists(seg.path):
                total += os.path.getsize(seg.path)
        return total

    def close(self) -> None:
        if self._fh is not None and not self._dead:
            self._fh.flush()
            if self.fsync != "never":
                os.fsync(self._fh.fileno())
            self._fh.close()
        elif self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
        self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, last_lsn={self.last_lsn}, "
            f"segments={len(self._segments)}, fsync='{self.fsync}')"
        )
