"""Checkpointing: save/restore full training state to a single ``.npz``.

Temporal models carry more state than parameters: resuming mid-stream
requires node memory, mailbox contents (and ring cursors), optimizer
moments, every RNG stream consumed by training, and the stream cursor
(epoch + batch index), or the replayed stream diverges.
``save_checkpoint`` captures all of it; ``load_checkpoint`` restores in
place and returns the stored metadata.

Writes are **atomic and self-verifying**: the archive is written to
``path + ".tmp"`` and renamed into place only once complete, so a write
killed mid-flight never clobbers the previous checkpoint; a CRC32 of all
array payloads is stored inside the archive and re-verified on load, so
a truncated or bit-flipped file is rejected with a clean ``ValueError``
naming the file instead of a numpy/zipfile internals error.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..durable.wal import fsync_dir
from ..nn import Adam, Module, Optimizer, SGD
from ..resilience.hooks import poke as _poke

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_arrays"]

_PREFIX_MODEL = "model/"
_PREFIX_MEMORY = "memory/"
_PREFIX_MAILBOX = "mailbox/"
_PREFIX_OPTIM = "optim/"
_PREFIX_RNG = "rng/"
_META = "meta/format_version"
_META_CRC = "meta/crc32"
_STREAM = "stream/cursor"
_FORMAT_VERSION = 2


def _optimizer_state(optimizer: Optimizer) -> Dict[str, np.ndarray]:
    """Flatten optimizer moments, keyed by parameter position."""
    state: Dict[str, np.ndarray] = {}
    if isinstance(optimizer, Adam):
        state["t"] = np.array([optimizer._t], dtype=np.int64)
        for i, p in enumerate(optimizer.params):
            m = optimizer._m.get(id(p))
            v = optimizer._v.get(id(p))
            if m is not None:
                state[f"m/{i}"] = m
                state[f"v/{i}"] = v
    elif isinstance(optimizer, SGD):
        for i, p in enumerate(optimizer.params):
            vel = optimizer._velocity.get(id(p))
            if vel is not None:
                state[f"vel/{i}"] = vel
    return state


def _restore_optimizer(optimizer: Optimizer, state: Dict[str, np.ndarray]) -> None:
    """Restore moments *exactly*: entries absent from the checkpoint are
    dropped, so rolling back to an early checkpoint cannot leave stale
    (or fault-poisoned) moments from the abandoned timeline behind."""
    if isinstance(optimizer, Adam):
        optimizer._m.clear()
        optimizer._v.clear()
        optimizer._t = int(state["t"][0]) if "t" in state else 0
        for i, p in enumerate(optimizer.params):
            if f"m/{i}" in state:
                optimizer._m[id(p)] = state[f"m/{i}"].copy()
                optimizer._v[id(p)] = state[f"v/{i}"].copy()
    elif isinstance(optimizer, SGD):
        optimizer._velocity.clear()
        for i, p in enumerate(optimizer.params):
            if f"vel/{i}" in state:
                optimizer._velocity[id(p)] = state[f"vel/{i}"].copy()


# ---- RNG state (bit-exact resume) -----------------------------------------------


def _pack_generator(gen: np.random.Generator) -> np.ndarray:
    """Serialize a PCG64-backed Generator's state to six uint64 words."""
    state = gen.bit_generator.state
    if state.get("bit_generator") != "PCG64":
        raise ValueError(
            f"can only checkpoint PCG64 generators, got {state.get('bit_generator')!r}"
        )
    words = []
    for val in (state["state"]["state"], state["state"]["inc"]):  # 128-bit each
        words.append(val & 0xFFFFFFFFFFFFFFFF)
        words.append((val >> 64) & 0xFFFFFFFFFFFFFFFF)
    words.append(int(state["has_uint32"]))
    words.append(int(state["uinteger"]))
    return np.array(words, dtype=np.uint64)


def _restore_generator(gen: np.random.Generator, words: np.ndarray) -> None:
    """Restore a Generator (in place) from :func:`_pack_generator` words."""
    w = [int(x) for x in words]
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": w[0] | (w[1] << 64), "inc": w[2] | (w[3] << 64)},
        "has_uint32": w[4],
        "uinteger": w[5],
    }


# ---- integrity ------------------------------------------------------------------


def _crc32_of(arrays: Dict[str, np.ndarray]) -> int:
    """CRC32 over every array's name, dtype, shape, and raw bytes."""
    crc = 0
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        crc = zlib.crc32(key.encode(), crc)
        crc = zlib.crc32(str(value.dtype).encode(), crc)
        crc = zlib.crc32(str(value.shape).encode(), crc)
        crc = zlib.crc32(value.tobytes(), crc)
    return crc & 0xFFFFFFFF


def checkpoint_arrays(
    model: Module,
    graph=None,
    optimizer: Optional[Optimizer] = None,
    generators: Optional[Dict[str, np.random.Generator]] = None,
    stream: Optional[Tuple[int, int]] = None,
) -> Dict[str, np.ndarray]:
    """Assemble the flat array dict a checkpoint stores.

    Args:
        model: module whose ``state_dict`` is captured.
        graph: optional graph; attached memory/mailbox state is captured.
        optimizer: optional optimizer; moments are captured.
        generators: named RNG streams (e.g. the global generator and the
            negative sampler's) captured for bit-exact resume.
        stream: ``(epoch, batch)`` cursor of the *next* batch to run.
    """
    arrays: Dict[str, np.ndarray] = {_META: np.array([_FORMAT_VERSION])}
    for name, value in model.state_dict().items():
        arrays[_PREFIX_MODEL + name] = value
    if graph is not None and graph.mem is not None:
        arrays[_PREFIX_MEMORY + "data"] = graph.mem.data.data.copy()
        arrays[_PREFIX_MEMORY + "time"] = graph.mem.time.copy()
    if graph is not None and graph.mailbox is not None:
        arrays[_PREFIX_MAILBOX + "mail"] = graph.mailbox.mail.data.copy()
        arrays[_PREFIX_MAILBOX + "time"] = graph.mailbox.time.copy()
        if graph.mailbox._next_slot is not None:
            arrays[_PREFIX_MAILBOX + "cursor"] = graph.mailbox._next_slot.copy()
    if optimizer is not None:
        for key, value in _optimizer_state(optimizer).items():
            arrays[_PREFIX_OPTIM + key] = value
    if generators:
        for name, gen in generators.items():
            arrays[_PREFIX_RNG + name] = _pack_generator(gen)
    if stream is not None:
        arrays[_STREAM] = np.array(list(stream), dtype=np.int64)
    return arrays


def save_checkpoint(
    path: str,
    model: Module,
    graph=None,
    optimizer: Optional[Optimizer] = None,
    generators: Optional[Dict[str, np.random.Generator]] = None,
    stream: Optional[Tuple[int, int]] = None,
) -> None:
    """Atomically write model + memory/mailbox + optimizer + RNG state.

    The archive is staged at ``path + ".tmp"`` and renamed over *path*
    only after the write completes, so an interrupted save leaves any
    previous checkpoint at *path* intact and loadable.
    """
    arrays = checkpoint_arrays(
        model, graph=graph, optimizer=optimizer, generators=generators, stream=stream
    )
    arrays[_META_CRC] = np.array([_crc32_of(arrays)], dtype=np.uint64)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        _poke("checkpoint.kill", path=tmp)  # fault site: may truncate + raise
        os.replace(tmp, path)
        # The rename itself is only durable once the directory entry is
        # flushed; without this a crash shortly after save_checkpoint can
        # roll the directory back to the *previous* checkpoint (or none).
        fsync_dir(directory)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_archive(path: str) -> Dict[str, np.ndarray]:
    """Load and integrity-check an archive; clean errors on corruption.

    An archive without a stored CRC32 is rejected like one whose CRC
    mismatches: stripping the section must not defeat the check.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no checkpoint at {path!r}")
    try:
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as exc:
        raise ValueError(
            f"checkpoint file {path!r} is corrupted or truncated ({exc})"
        ) from exc
    stored_crc = arrays.pop(_META_CRC, None)
    if stored_crc is None:
        raise ValueError(
            f"checkpoint file {path!r} has no stored CRC32: its integrity "
            "cannot be verified"
        )
    if int(stored_crc[0]) != _crc32_of(arrays):
        raise ValueError(
            f"checkpoint file {path!r} failed its CRC32 integrity check "
            "(partial write or bit corruption)"
        )
    return arrays


def load_checkpoint(
    path: str,
    model: Module,
    graph=None,
    optimizer: Optional[Optimizer] = None,
    generators: Optional[Dict[str, np.random.Generator]] = None,
) -> Dict[str, object]:
    """Restore state saved by :func:`save_checkpoint` (in place).

    Raises ``ValueError`` on a corrupted/truncated file, a missing or
    mismatching CRC, or an unknown format version, and
    ``KeyError``/``ValueError`` on structural mismatches (missing
    parameters, wrong shapes, state the target cannot hold), so silently
    loading the wrong checkpoint is not possible.

    Returns a metadata dict with the archive ``"version"`` and the
    ``"stream"`` cursor (``(epoch, batch)`` tuple, or ``None`` for
    checkpoints taken outside a resumable training loop).
    """
    arrays = _read_archive(path)
    version = int(arrays.pop(_META, np.array([0]))[0])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version}")
    model_state = {
        key[len(_PREFIX_MODEL):]: value
        for key, value in arrays.items()
        if key.startswith(_PREFIX_MODEL)
    }
    model.load_state_dict(model_state)
    has_memory = _PREFIX_MEMORY + "data" in arrays
    has_mailbox = _PREFIX_MAILBOX + "mail" in arrays
    if graph is not None:
        if graph.mem is not None and not has_memory:
            raise KeyError("checkpoint has no memory state but the graph expects it")
        if graph.mem is None and has_memory:
            raise ValueError(
                f"checkpoint {path!r} contains node-memory state but the "
                "target graph has no Memory attached (call g.set_memory "
                "before loading, or it would be silently dropped)"
            )
        if graph.mailbox is not None and not has_mailbox:
            raise KeyError("checkpoint has no mailbox state but the graph expects it")
        if graph.mailbox is None and has_mailbox:
            raise ValueError(
                f"checkpoint {path!r} contains mailbox state but the "
                "target graph has no Mailbox attached (call g.set_mailbox "
                "before loading, or it would be silently dropped)"
            )
        if graph.mem is not None:
            graph.mem.data.data[...] = arrays[_PREFIX_MEMORY + "data"]
            graph.mem.time[...] = arrays[_PREFIX_MEMORY + "time"]
        if graph.mailbox is not None:
            graph.mailbox.mail.data[...] = arrays[_PREFIX_MAILBOX + "mail"]
            graph.mailbox.time[...] = arrays[_PREFIX_MAILBOX + "time"]
            if graph.mailbox._next_slot is not None:
                graph.mailbox._next_slot[...] = arrays[_PREFIX_MAILBOX + "cursor"]
    if optimizer is not None:
        optim_state = {
            key[len(_PREFIX_OPTIM):]: value
            for key, value in arrays.items()
            if key.startswith(_PREFIX_OPTIM)
        }
        _restore_optimizer(optimizer, optim_state)
    if generators:
        for name, gen in generators.items():
            key = _PREFIX_RNG + name
            if key not in arrays:
                raise KeyError(
                    f"checkpoint has no RNG state for generator {name!r} "
                    "(saved without generators?)"
                )
            _restore_generator(gen, arrays[key])
    stream = arrays.get(_STREAM)
    return {
        "version": version,
        "stream": (int(stream[0]), int(stream[1])) if stream is not None else None,
    }
