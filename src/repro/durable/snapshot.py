"""Atomic, CRC-verified state snapshots anchoring log compaction.

A snapshot is a full image of the durable state at a known log position:
``state(snapshot at lsn L) + replay(records with lsn > L)`` must equal
``replay(all records)``.  Once a snapshot is durable, every sealed log
segment below its LSN is garbage and can be compacted away.

Container format (``snap-<lsn>.snap``, and — through
:func:`write_container` / :func:`read_container` at an explicit path —
every other durable state file, e.g. training checkpoints, which store
``lsn`` 0)::

    12 bytes  magic "TGLITESNP001"
    u32       version
    u64       lsn
    u32       crc32(payload)
    u64       len(payload)
    ...       payload (codec-encoded KIND_SNAPSHOT record)

Writes are atomic: staged at ``path + ".tmp"``, fsynced, renamed into
place, and the directory is fsynced so the rename itself survives a
crash — one writer and one reader for every state file.
:func:`load_latest` walks snapshots newest-first and returns the
first one that passes its CRC — a torn or bit-flipped newest snapshot
falls back to the previous one instead of poisoning recovery.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..resilience.hooks import poke as _poke
from .codec import KIND_SNAPSHOT, CodecError, decode_payload, encode_payload
from .wal import fsync_dir

__all__ = [
    "write_container",
    "read_container",
    "write_snapshot",
    "load_latest",
    "list_snapshots",
    "prune_snapshots",
]

_MAGIC = b"TGLITESNP001"
_VERSION = 1
_HEAD = struct.Struct("<12sIQIQ")  # magic, version, lsn, crc, payload length
_SNAP_RE = re.compile(r"^snap-(\d{12})\.snap$")


def _snap_path(directory: str, lsn: int) -> str:
    return os.path.join(directory, f"snap-{lsn:012d}.snap")


def write_container(
    path: str,
    lsn: int,
    meta: Dict,
    arrays: Dict[str, np.ndarray],
    kill_site: Optional[str] = None,
) -> None:
    """Atomically persist *meta* + *arrays* at *path* in the container format.

    *kill_site* is the fault site (if any) the caller wants consulted
    between the staged file's fsync and the rename — the instant at
    which a killed write must leave the previous file at *path* intact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    payload = encode_payload(KIND_SNAPSHOT, meta, arrays)
    head = _HEAD.pack(
        _MAGIC, _VERSION, int(lsn), zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        if kill_site is not None:
            _poke(kill_site, path=tmp)  # may truncate the staged file + raise
        os.replace(tmp, path)
        # The rename itself is only durable once the directory entry is
        # flushed; without this a crash shortly after the write can roll
        # the directory back to the *previous* file (or none).
        fsync_dir(directory)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_container(path: str) -> Tuple[int, Dict, Dict[str, np.ndarray]]:
    """Decode one container file into ``(lsn, meta, arrays)``.

    A torn, truncated, bit-flipped or foreign file is a ``ValueError``
    naming *path* and the reason; nothing is ever partially loaded.
    """
    def corrupt(reason: str) -> ValueError:
        return ValueError(f"state container {path!r} is corrupt: {reason}")

    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _HEAD.size:
        raise corrupt("truncated inside the header")
    magic, version, lsn, crc, length = _HEAD.unpack_from(buf)
    if magic != _MAGIC:
        raise corrupt("wrong magic (not a state container)")
    if version != _VERSION:
        raise corrupt(f"unknown container version {version}")
    payload = buf[_HEAD.size : _HEAD.size + length]
    if len(payload) != length:
        raise corrupt("truncated payload")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise corrupt("CRC32 mismatch (partial write or bit corruption)")
    try:
        kind, meta, arrays = decode_payload(payload)
    except CodecError as exc:
        raise corrupt(f"undecodable payload ({exc})") from exc
    if kind != KIND_SNAPSHOT:
        raise corrupt(f"unexpected record kind {kind}")
    return int(lsn), meta, arrays


def write_snapshot(
    directory: str,
    lsn: int,
    meta: Dict,
    arrays: Dict[str, np.ndarray],
) -> str:
    """Atomically persist a snapshot of *arrays* taken at log position *lsn*."""
    path = _snap_path(directory, lsn)
    write_container(path, lsn, meta, arrays)
    return path


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """All snapshot files as ``(lsn, path)``, oldest first."""
    if not os.path.isdir(directory):
        return []
    out = []
    for name in os.listdir(directory):
        m = _SNAP_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    return sorted(out)


def load_latest(directory: str) -> Optional[Tuple[int, Dict, Dict[str, np.ndarray]]]:
    """Newest snapshot that passes integrity checks, or None.

    Corrupt snapshots are skipped (recovery falls back to an older one
    plus a longer log replay), never partially loaded.
    """
    for _, path in reversed(list_snapshots(directory)):
        try:
            return read_container(path)
        except (OSError, ValueError):
            continue
    return None


def prune_snapshots(directory: str, keep: int = 2) -> int:
    """Delete all but the newest *keep* snapshots; returns removals."""
    if keep < 1:
        raise ValueError("keep must be >= 1")
    snaps = list_snapshots(directory)
    removed = 0
    for _, path in snaps[:-keep]:
        os.remove(path)
        removed += 1
    if removed:
        fsync_dir(directory)
    return removed
