"""Module-level tensor creation and combination functions.

These mirror the ``torch.*`` free functions that TGNN model code leans on:
``cat``, ``stack``, ``where``, ``zeros``/``ones``/``randn``, plus a
differentiable ``index_put`` used by the deduplication/caching operators to
merge computed embeddings back into full-size outputs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from ..splitmix import splitmix64
from .device import Device
from .random import default_generator, next_dropout_key
from .tensor import Tensor, _unbroadcast

__all__ = [
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
]


def tensor(data, device=None) -> Tensor:
    """Copy array-like *data* into a tensor (floats default to float32)."""
    arr = np.array(data.data if isinstance(data, Tensor) else data)
    if arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return Tensor(arr, device=device)


def zeros(*shape, dtype=np.float32, device=None) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), device=device)


def zeros_like(t: Tensor, dtype=None) -> Tensor:
    return Tensor(np.zeros_like(t.data, dtype=dtype), device=t.device)


def ones(*shape, dtype=np.float32, device=None) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), device=device)


def ones_like(t: Tensor, dtype=None) -> Tensor:
    return Tensor(np.ones_like(t.data, dtype=dtype), device=t.device)


def full(shape, fill_value, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=dtype))


def empty(*shape, dtype=np.float32) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.empty(shape, dtype=dtype))


def arange(*args, dtype=np.int64, device=None) -> Tensor:
    return Tensor(np.arange(*args, dtype=dtype), device=device)


def randn(*shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(default_generator().standard_normal(shape).astype(np.float32))


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    """Concatenate tensors along *dim* (differentiable)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cat expects a non-empty sequence")
    device = tensors[0].device
    for t in tensors:
        if t.device is not device:
            raise RuntimeError("cat requires all tensors on the same device")
    out_data = np.concatenate([t.data for t in tensors], axis=dim)
    sizes = [t.data.shape[dim] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, dim, 0)
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                piece = np.moveaxis(moved[start:stop], 0, dim)
                t._accumulate(np.ascontiguousarray(piece))

    return Tensor._make(out_data, tensors, backward, device)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack tensors along a new leading axis (differentiable)."""
    return cat([t.unsqueeze(0) for t in tensors], dim=0)


def where(cond: Union[Tensor, np.ndarray], a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``a`` where *cond* else ``b`` (differentiable)."""
    mask = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    mask = mask.astype(bool)
    out_data = np.where(mask, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(mask, grad, 0.0), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(mask, 0.0, grad), b.data.shape))

    return Tensor._make(out_data, (a, b), backward, a.device)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    mask = a.data >= b.data
    out_data = np.where(mask, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(mask, grad, 0.0), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(mask, 0.0, grad), b.data.shape))

    return Tensor._make(out_data, (a, b), backward, a.device)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    mask = a.data <= b.data
    out_data = np.where(mask, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(mask, grad, 0.0), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(mask, 0.0, grad), b.data.shape))

    return Tensor._make(out_data, (a, b), backward, a.device)


def index_put(base: Tensor, index: Union[Tensor, np.ndarray], values: Tensor) -> Tensor:
    """Differentiable row assignment: ``out = base; out[index] = values``.

    Rows of *base* selected by *index* are replaced by *values*; gradients
    flow to both *base* (for unreplaced rows) and *values*.
    """
    idx = index.data if isinstance(index, Tensor) else np.asarray(index)
    out_data = base.data.copy()
    out_data[idx] = values.data

    def backward(grad: np.ndarray) -> None:
        if base.requires_grad:
            gb = grad.copy()
            gb[idx] = 0.0
            base._accumulate(gb)
        if values.requires_grad:
            values._accumulate(grad[idx])

    return Tensor._make(out_data, (base, values), backward, base.device)


def unique(t: Tensor, return_inverse: bool = False):
    """Sorted unique values (and optionally the inverse mapping)."""
    if return_inverse:
        vals, inv = np.unique(t.data, return_inverse=True)
        return Tensor(vals, device=t.device), Tensor(inv.astype(np.int64), device=t.device)
    return Tensor(np.unique(t.data), device=t.device)


def dropout_mask(shape, p: float, device=None) -> Tensor:
    """Inverted-dropout mask: Bernoulli keep-mask scaled by ``1/(1-p)``.

    Element ``i`` is kept when its 32-bit uniform, half ``i % 2`` (low
    first) of word ``splitmix64(key ^ i // 2)``, is ``>= p``; *key* is
    the next dropout key (:mod:`repro.tensor.random`).
    """
    n = int(np.prod(shape))
    words = splitmix64(np.arange((n + 1) // 2, dtype=np.uint64) ^ next_dropout_key())
    halves = words.astype("<u8", copy=False).view("<u4")[:n]
    keep = halves >= np.uint32(min(math.ceil(p * 2.0**32), 2**32 - 1))
    return Tensor(keep.reshape(shape) * np.float32(1.0 / max(1.0 - p, 1e-8)), device=device)
