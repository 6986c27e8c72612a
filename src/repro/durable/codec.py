"""Binary codec for durable-log records.

A record payload is a ``(kind, meta, arrays)`` triple — a small integer
record kind, a JSON-able metadata dict, and a named dict of numpy arrays
— serialized to a self-describing byte string.  The encoding is
deliberately boring: little-endian length-prefixed fields, no
compression, no pickling (a corrupted pickle can execute code; a
corrupted array blob just fails its CRC).

Layout::

    u8   kind
    u32  len(meta_json)      meta_json (utf-8)
    u16  n_arrays
    per array:
        u16  len(name)       name (utf-8)
        u16  len(dtype_str)  dtype_str (numpy ``dtype.str``, e.g. '<f4')
        u8   ndim            ndim x u64 shape
        u64  len(raw)        raw bytes (C-contiguous)

Integrity is the framing layer's job (per-record CRC32 in the WAL,
whole-file CRC in snapshots); the codec only has to fail *cleanly* on
garbage, which the length-prefixed layout guarantees — every decode
checks bounds before slicing and raises :class:`CodecError`.
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CodecError",
    "KIND_BATCH",
    "KIND_SNAPSHOT",
    "encode_payload",
    "encode_records",
    "decode_payload",
    "decode_committed",
]

#: record kinds (u8); the WAL/stores attach semantics, the codec does not.
KIND_BATCH = 1  #: a committed TBatch delta (serve path)
# Kind 2 is reserved, never reused: logs written before commits became
# check-then-log used it to veto an already-logged batch, so a reader
# that met one under any new meaning would resurrect that batch.
_RETIRED_ABORT = 2
# Kinds 3 (training control marker) and 4 (training state delta) are
# reserved as well: the training loop logged them before checkpoints
# became its only persistence.
KIND_SNAPSHOT = 5  #: full state image (snapshot files only)


#: ``json.dumps(meta, sort_keys=True)``'s encoder, built once: ``dumps``
#: would construct an identical one for every record.
_META_ENCODER = json.JSONEncoder(sort_keys=True)


class CodecError(ValueError):
    """Payload bytes do not decode to a well-formed record."""


def encode_payload(kind: int, meta: Dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize ``(kind, meta, arrays)`` to bytes (see module layout)."""
    return encode_records(kind, [meta], arrays)[0]


def encode_records(kind: int, metas: Sequence[Dict], arrays: Dict[str, np.ndarray],
                   spans: Optional[Sequence[Tuple[int, int]]] = None) -> List[bytes]:
    """One :func:`encode_payload` record per entry of *metas*, all of *kind*.

    Record ``i`` holds rows ``[lo, hi)`` of every array for ``(lo, hi) =
    spans[i]`` — byte for byte ``encode_payload(kind, metas[i], {name:
    array[lo:hi]})`` — or every array whole when *spans* is None.  The
    names are sorted, and each array made contiguous, once for all records.
    """
    if not 0 <= int(kind) <= 0xFF:
        raise ValueError(f"record kind must fit a u8, got {kind}")
    columns = []
    for name in sorted(arrays):
        value = np.asarray(arrays[name])
        if not value.flags["C_CONTIGUOUS"]:
            # (ascontiguousarray unconditionally promotes 0-d to 1-d,
            # so only call it when actually needed)
            value = np.ascontiguousarray(value)
        columns.append((name, value.dtype.str, value))
    count = struct.pack("<H", len(columns))
    records = []
    for meta, span in zip(metas, spans or [None] * len(metas)):
        meta_json = _META_ENCODER.encode(meta or {}).encode()
        parts = [struct.pack("<BI", int(kind), len(meta_json)), meta_json, count]
        for name, dtype_str, value in columns:
            if span is not None:
                value = value[span[0]:span[1]]  # a row run of a C-contiguous array is one
            parts.append(_array_head(name, dtype_str, value.shape, value.nbytes))
            parts.append(value)  # joined straight from the array's buffer
        records.append(b"".join(parts))
    return records


@lru_cache(maxsize=1024)
def _array_head(name: str, dtype_str: str, shape: Tuple[int, ...], nbytes: int) -> bytes:
    """Everything an array's record carries ahead of its raw bytes."""
    name_b, dtype_b = name.encode(), dtype_str.encode()
    return b"".join([struct.pack("<H", len(name_b)), name_b,
                     struct.pack("<H", len(dtype_b)), dtype_b,
                     struct.pack(f"<B{len(shape)}QQ", len(shape), *shape, nbytes)])


class _Reader:
    """Bounds-checked cursor over a payload buffer."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise CodecError(
                f"truncated payload: need {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def decode_payload(buf: bytes) -> Tuple[int, Dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`encode_payload`; raises :class:`CodecError` on junk."""
    r = _Reader(bytes(buf))
    kind, meta_len = r.unpack("<BI")
    try:
        meta = json.loads(r.take(meta_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"payload metadata is not valid JSON ({exc})") from exc
    (n_arrays,) = r.unpack("<H")
    arrays: Dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode()
        (dtype_len,) = r.unpack("<H")
        dtype_str = r.take(dtype_len).decode()
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as exc:
            raise CodecError(f"bad dtype {dtype_str!r} for array {name!r}") from exc
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}Q")
        (nbytes,) = r.unpack("<Q")
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize  # () -> 1
        if nbytes != expected:
            raise CodecError(
                f"array {name!r}: {nbytes} raw bytes inconsistent with "
                f"shape {shape} of {dtype_str}"
            )
        raw = r.take(nbytes)
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if r.pos != len(r.buf):
        raise CodecError(f"{len(r.buf) - r.pos} trailing bytes after payload")
    return kind, meta, arrays


def decode_committed(buf: bytes, lsn: int, directory: str):
    """:func:`decode_payload` for recovery and tailing reads of a log.

    Refuses a log written under the old apply-validate-rollback protocol:
    its kind-2 record vetoes an earlier batch record, so replaying the
    log without honouring it would resurrect a rolled-back batch, and
    treating it as the torn tail would drop every committed record after
    it.  Neither is safe, so the read stops with a :class:`RuntimeError`
    (not a :class:`CodecError`, which readers take for the torn tail).
    """
    kind, meta, arrays = decode_payload(buf)
    if kind == _RETIRED_ABORT:
        raise RuntimeError(
            f"record lsn {lsn} in {directory!r} is an abort record (kind 2) "
            "of the retired apply-validate-rollback commit protocol; this "
            "version cannot replay the log without resurrecting the batch "
            "it rolled back"
        )
    return kind, meta, arrays
