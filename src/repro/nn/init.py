"""Parameter initialization schemes (uniform, Kaiming)."""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor
from ..tensor.random import default_generator

__all__ = [
    "uniform_",
    "kaiming_uniform_",
]


def _fan_in_out(tensor: Tensor):
    shape = tensor.shape
    if len(shape) < 2:
        fan_in = fan_out = shape[0] if shape else 1
    else:
        receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    return fan_in, fan_out


def uniform_(tensor: Tensor, low: float = 0.0, high: float = 1.0) -> Tensor:
    rng = default_generator()
    tensor.data[...] = rng.uniform(low, high, size=tensor.shape).astype(tensor.dtype)
    return tensor


def kaiming_uniform_(tensor: Tensor, a: float = math.sqrt(5)) -> Tensor:
    fan_in, _ = _fan_in_out(tensor)
    gain = math.sqrt(2.0 / (1 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return uniform_(tensor, -bound, bound)
