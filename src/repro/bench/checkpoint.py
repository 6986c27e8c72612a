"""Checkpointing: save/restore full training state to a single file.

Temporal models carry more state than parameters: resuming mid-stream
requires node memory, mailbox contents (and ring cursors), optimizer
moments, and the stream cursor (epoch + batch index), or the replayed
stream diverges.  No RNG state is stored: a training step draws from no
stream (negatives, dropout masks and uniform neighbours are keyed on the
pass and the batch's edge ids), so the cursor is all a resume needs.
``save_checkpoint`` captures all of it; ``load_checkpoint`` restores in
place and returns the stored metadata.

The file is the :mod:`repro.durable.snapshot` state container — the
same atomic writer (stage at ``path + ".tmp"``, fsync, rename, fsync the
directory) and CRC-verifying reader the serving snapshots use — so a
write killed mid-flight never clobbers the previous checkpoint and a
truncated or bit-flipped file is rejected with a clean ``ValueError``
naming the file.  The memory/mailbox part of the payload is the core
state image (:mod:`repro.core.state`), the same keys a serving snapshot
carries; format version and stream cursor live in the container's JSON
``meta``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.state import load_state_image, state_image
from ..durable.snapshot import read_container, write_container
from ..nn import Adam, Module, Optimizer, SGD

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_arrays"]

_PREFIX_MODEL = "model/"
_PREFIX_OPTIM = "optim/"
#: 4 = the durable state container with no RNG state (1-2 were ``.npz``
#: archives; 3 carried RNG streams a resume can no longer follow).
_FORMAT_VERSION = 4


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


def checkpoint_arrays(
    model: Module,
    graph=None,
    optimizer: Optional[Optimizer] = None,
) -> Dict[str, np.ndarray]:
    """Assemble the flat array dict a checkpoint stores.

    Args:
        model: module whose ``state_dict`` is captured.
        graph: optional graph; the state image of its attached
            memory/mailbox is captured (live arrays, not copies).
        optimizer: optional optimizer; moments are captured.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[_PREFIX_MODEL + name] = value
    if graph is not None:
        arrays.update(state_image(graph.mem, graph.mailbox))
    if optimizer is not None:
        for key, value in _optimizer_state(optimizer).items():
            arrays[_PREFIX_OPTIM + key] = value
    return arrays


def save_checkpoint(
    path: str,
    model: Module,
    graph=None,
    optimizer: Optional[Optimizer] = None,
    stream: Optional[Tuple[int, int]] = None,
) -> None:
    """Atomically write model + memory/mailbox + optimizer state.

    *stream* is the ``(epoch, batch)`` cursor of the *next* batch to run.
    An interrupted save (the ``checkpoint.kill`` fault site fires after
    the staged file is fsynced, before the rename) leaves any previous
    checkpoint at *path* intact and loadable.
    """
    write_container(
        path,
        0,
        {"version": _FORMAT_VERSION, "stream": None if stream is None else list(stream)},
        checkpoint_arrays(model, graph=graph, optimizer=optimizer),
        kill_site="checkpoint.kill",
    )


def load_checkpoint(
    path: str,
    model: Module,
    graph=None,
    optimizer: Optional[Optimizer] = None,
) -> Dict[str, object]:
    """Restore state saved by :func:`save_checkpoint` (in place).

    Raises ``ValueError`` on a corrupted/truncated/foreign file or an
    unknown format version, and ``KeyError``/``ValueError`` on structural
    mismatches (missing parameters, wrong shapes, state the target
    cannot hold), so silently loading the wrong checkpoint is not
    possible.

    Returns a metadata dict with the format ``"version"`` and the
    ``"stream"`` cursor (``(epoch, batch)`` tuple, or ``None`` for
    checkpoints taken outside a resumable training loop).
    """
    _, meta, arrays = read_container(path)
    version = meta.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path!r}: unsupported checkpoint format version: {version}"
        )
    model_state = {
        key[len(_PREFIX_MODEL):]: value
        for key, value in arrays.items()
        if key.startswith(_PREFIX_MODEL)
    }
    model.load_state_dict(model_state)
    if graph is not None:
        load_state_image(arrays, graph.mem, graph.mailbox, f"checkpoint {path!r}")
    if optimizer is not None:
        optim_state = {
            key[len(_PREFIX_OPTIM):]: value
            for key, value in arrays.items()
            if key.startswith(_PREFIX_OPTIM)
        }
        _restore_optimizer(optimizer, optim_state)
    stream = meta.get("stream")
    return {
        "version": version,
        "stream": (int(stream[0]), int(stream[1])) if stream is not None else None,
    }
