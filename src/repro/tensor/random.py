"""Seedable randomness shared across the tensor backend.

Parameter initialization draws from one process-global
:class:`numpy.random.Generator`, reseeded by :func:`manual_seed`.

Dropout draws from no stream.  The keep bit of element ``i`` of a mask is
a splitmix64 hash of ``(seed, pass, step, ordinal, i)``: the
:func:`manual_seed` seed, the training pass (:func:`dropout_pass`), the
step's batch start (:func:`dropout_step`) and the mask's ordinal within
the step.  A step rerun with the same key (a retry, a rollback, a resumed
process) replays the same masks, with nothing saved or restored.
"""

from __future__ import annotations

import numpy as np

from ..splitmix import splitmix64

__all__ = ["manual_seed", "default_generator", "dropout_pass", "dropout_step", "next_dropout_key"]

_GENERATOR = np.random.default_rng(0)
#: dropout's key: seed, pass, step, and the ordinal of the step's next mask.
_DROPOUT = [0, 0, 0, 0]


def manual_seed(seed: int) -> None:
    """Reseed the process-global generator and rekey dropout on *seed*
    (pass, step and ordinal back to 0)."""
    global _GENERATOR
    _GENERATOR = np.random.default_rng(seed)
    _DROPOUT[:] = [seed, 0, 0, 0]


def default_generator() -> np.random.Generator:
    """Return the process-global generator."""
    return _GENERATOR


def dropout_pass(pass_index: int) -> None:
    """Key the dropout masks that follow on training pass *pass_index*."""
    _DROPOUT[1] = pass_index


def dropout_step(start: int) -> None:
    """Key the dropout masks that follow on the step whose batch starts at
    edge *start*; the step's first mask is ordinal 0."""
    _DROPOUT[2:] = [start, 0]


def next_dropout_key() -> np.ndarray:
    """The ``uint64`` key of the next dropout mask; advances the ordinal."""
    seed, pass_index, step, ordinal = _DROPOUT
    _DROPOUT[3] += 1
    h = splitmix64(splitmix64(seed) ^ np.uint64(pass_index))
    h = splitmix64(h ^ np.uint64(step))
    return splitmix64(h ^ np.uint64(ordinal))
