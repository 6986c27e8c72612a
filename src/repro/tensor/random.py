"""Seedable randomness shared across the tensor backend.

A single process-global :class:`numpy.random.Generator` backs parameter
initialization, dropout, and the synthetic dataset generators' *default*
randomness, so experiments are reproducible via :func:`manual_seed`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["manual_seed", "default_generator"]

_GENERATOR = np.random.default_rng(0)


def manual_seed(seed: int) -> None:
    """Reset the process-global generator to a fixed seed."""
    global _GENERATOR
    _GENERATOR = np.random.default_rng(seed)


def default_generator() -> np.random.Generator:
    """Return the process-global generator."""
    return _GENERATOR

