"""splitmix64, the one integer mix behind every keyed hash in the package:
uniform neighbour sampling's selection keys, hash shard placement and the
fault injector's rate decisions.  Imports nothing from ``repro``."""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64"]


def splitmix64(x) -> np.ndarray:
    """One splitmix64 round over ``uint64`` words, wrapping mod ``2**64``.

    *x* is an array or a scalar (a Python int must lie in ``[0, 2**64)``);
    the result is a fresh ``uint64`` array of the same shape.
    """
    x = np.array(x, dtype=np.uint64)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x
