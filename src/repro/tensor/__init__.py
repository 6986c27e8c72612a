"""Numpy-backed tensor backend with autograd and a simulated device model.

This package replaces the PyTorch dependency of the original TGLite release.
It exposes a ``torch``-like surface: :class:`Tensor`, creation functions
(:func:`zeros`, :func:`randn`, ...), combination functions (:func:`cat`,
:func:`stack`, :func:`where`), segmented kernels used by the graph
operators, and the :mod:`~repro.tensor.device` simulation used by the
CPU-to-GPU experiments.
"""

from .device import (
    CPU,
    CUDA,
    Device,
    DeviceOutOfMemoryError,
    get_device,
    runtime,
)
from .functional import (
    arange,
    cat,
    dropout_mask,
    empty,
    full,
    index_put,
    maximum,
    minimum,
    ones,
    ones_like,
    randn,
    stack,
    tensor,
    unique,
    where,
    zeros,
    zeros_like,
)
from .random import default_generator, manual_seed
from .segment import (
    segment_argmax_by_key,
    segment_count,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "Device",
    "DeviceOutOfMemoryError",
    "CPU",
    "CUDA",
    "get_device",
    "runtime",
    "no_grad",
    "is_grad_enabled",
    "manual_seed",
    "default_generator",
    "tensor",
    "zeros",
    "zeros_like",
    "ones",
    "ones_like",
    "full",
    "empty",
    "arange",
    "randn",
    "cat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "index_put",
    "unique",
    "dropout_mask",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_count",
    "segment_softmax",
    "segment_argmax_by_key",
]
