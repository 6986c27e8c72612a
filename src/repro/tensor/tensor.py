"""A numpy-backed tensor with reverse-mode automatic differentiation.

This module stands in for the PyTorch tensor backend that the paper pairs
TGLite with.  It implements the subset of tensor semantics that temporal GNN
models exercise: broadcasting arithmetic, (batched) matrix multiplication,
reductions, concatenation/reshaping, fancy indexing with gradients, masked
fills, and softmax.  Segmented operators used by TGLite's block operators
live in :mod:`repro.tensor.segment`.

The autograd design is a classic dynamic tape: each differentiable op
returns a new :class:`Tensor` holding a backward closure and references to
its parents; ``Tensor.backward()`` topologically sorts the graph and
accumulates gradients into ``.grad``.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .device import CPU, Device, get_device, runtime

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient graph construction."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Return whether gradient graph construction is currently enabled."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce *grad* back to *shape* by summing over broadcasted axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_BASIC_INDEX = (slice, int, np.integer, type(None), type(Ellipsis))


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An n-dimensional array with optional autograd tracking.

    Args:
        data: array-like payload; python floats become float32.
        requires_grad: whether gradients should be accumulated into
            ``.grad`` during :meth:`backward`.
        device: simulated device placement (``'cpu'`` or ``'cuda'``).
        pinned: whether this (host) tensor lives in the pinned-memory pool,
            making simulated transfers to the device cheaper.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "device",
        "pinned",
        "_backward",
        "_prev",
        "_grad_owned",
        "__weakref__",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        device: Union[str, Device, None] = None,
        pinned: bool = False,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        if self.requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError("only floating-point tensors can require gradients")
        self.device = get_device(device)
        self.pinned = bool(pinned)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self._grad_owned = False
        if self.device.is_cuda and runtime.tracking(self.device):
            nbytes = self.data.nbytes
            runtime.allocate(self.device, nbytes)
            weakref.finalize(self, runtime.free, self.device, nbytes)

    # ---- construction helpers ------------------------------------------------

    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Optional[Callable[[np.ndarray], None]],
        device: Device,
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=False, device=device)
        if requires:
            out.requires_grad = True
            out._prev = tuple(parents)
            out._backward = backward
        return out

    # ---- basic properties ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def size(self, dim: Optional[int] = None):
        if dim is None:
            return self.data.shape
        return self.data.shape[dim]

    def dim(self) -> int:
        return self.data.ndim

    def item(self):
        return self.data.item()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (host copy if on the simulated device)."""
        return self.data

    def tolist(self):
        return self.data.tolist()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        dev = f", device='{self.device}'" if self.device.is_cuda else ""
        return f"Tensor({self.data!r}{dev}{grad})"

    def __bool__(self) -> bool:
        return bool(self.data)

    # ---- device & memory management -------------------------------------------

    def to(
        self,
        device: Union[str, Device],
        non_blocking: bool = False,
        via_pinned: bool = False,
    ) -> "Tensor":
        """Move to *device*, paying the simulated transfer cost if crossing.

        Args:
            device: target device.
            non_blocking: accepted for API familiarity (no-op).
            via_pinned: charge the transfer at pinned bandwidth even if this
                tensor is not itself pinned — models use this for
                device-to-host stores routed through a pinned staging
                buffer (e.g. mailbox write-back under ``preload``).
        """
        target = get_device(device)
        if target is self.device:
            return self
        runtime.transfer(self.data.nbytes, pinned=self.pinned or via_pinned)
        out = Tensor(self.data.copy(), device=target)
        out.requires_grad = self.requires_grad
        if self.requires_grad and _GRAD_ENABLED:
            src = self

            def backward(grad: np.ndarray) -> None:
                src._accumulate(grad)

            out._prev = (self,)
            out._backward = backward
        return out

    def cpu(self) -> "Tensor":
        return self.to(CPU)

    def detach(self) -> "Tensor":
        """Return a view-like tensor sharing data but detached from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out.device = self.device
        out.pinned = self.pinned
        out._backward = None
        out._prev = ()
        out._grad_owned = False
        return out

    def float(self) -> "Tensor":
        return self.astype(np.float32)

    def bool(self) -> "Tensor":
        return self.astype(np.bool_)

    def astype(self, dtype) -> "Tensor":
        if self.data.dtype == dtype:
            return self
        out_data = self.data.astype(dtype)
        if self.requires_grad and np.issubdtype(np.dtype(dtype), np.floating):
            src = self

            def backward(grad: np.ndarray) -> None:
                src._accumulate(grad.astype(src.data.dtype))

            return Tensor._make(out_data, (self,), backward, self.device)
        out = Tensor(out_data, device=self.device)
        return out

    # ---- autograd engine -------------------------------------------------------

    def _accumulate(self, grad: np.ndarray, own: bool = False, key=None) -> None:
        """Add *grad* into ``.grad`` without ever writing a buffer it does not own.

        The first gradient is held by reference, not copied; ``own`` says the
        caller just allocated *grad* and hands it over.  A borrowed buffer
        (another tensor's gradient, a user's seed, a read-only broadcast
        view) is only ever read: the next gradient is summed with it into a
        fresh owned array, the same float32 sum ``+=`` would give.  Backward
        closures and optimizers must likewise treat gradients as read-only.

        With a basic (slice / int) *key* tuple, *grad* is the gradient of
        ``data[key]`` and adds into ``.grad[key]``: zeros are allocated once
        per gradient, not once per slice, and a borrowed gradient is copied
        once before it is written.
        """
        if grad.dtype != self.data.dtype:
            grad, own = grad.astype(self.data.dtype), True
        if key is not None:
            if self.grad is None:
                self.grad, self._grad_owned = np.zeros_like(self.data), True
                self.grad[key] = grad
                return
            if not self._grad_owned:
                self.grad, self._grad_owned = self.grad.copy(), True
            self.grad[key] += grad
        elif self.grad is None:
            self.grad, self._grad_owned = grad, own
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad, self._grad_owned = self.grad + grad, True

    def backward(self, grad: Optional[Union["Tensor", np.ndarray]] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Args:
            grad: seed gradient; defaults to 1 for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("tensor does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            seed = np.ones_like(self.data)
        else:
            seed = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
            if seed.shape != self.data.shape:
                raise RuntimeError("seed gradient shape mismatch")

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Intermediate gradients are not retained, matching the
                # torch default and keeping memory bounded.
                if node._prev:
                    node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ---- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.device is not self.device:
                raise RuntimeError(
                    f"device mismatch: {self.device} vs {other.device}"
                )
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype), device=self.device)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.data.shape))

        return Tensor._make(out_data, (a, b), backward, self.device)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad, b.data.shape))

        return Tensor._make(out_data, (a, b), backward, self.device)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

        return Tensor._make(out_data, (a, b), backward, self.device)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.data.shape))

        return Tensor._make(out_data, (a, b), backward, self.device)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward, self.device)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * exponent * src.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, self.device)

    # ---- comparisons (no grad) ----------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data == other_data, device=self.device)

    def __ne__(self, other):  # type: ignore[override]
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data != other_data, device=self.device)

    def __lt__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data < other_data, device=self.device)

    def __le__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data <= other_data, device=self.device)

    def __gt__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data > other_data, device=self.device)

    def __ge__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data >= other_data, device=self.device)

    def __hash__(self) -> int:
        return id(self)

    # ---- elementwise functions ------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, self.device)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad / src.data)

        return Tensor._make(out_data, (self,), backward, self.device)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), backward, self.device)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, self.device)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward, self.device)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward, self.device)

    def clamp(self, min: Optional[float] = None, max: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, min, max)
        inside = np.ones_like(self.data, dtype=bool)
        if min is not None:
            inside &= self.data >= min
        if max is not None:
            inside &= self.data <= max
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward, self.device)

    # ---- reductions ------------------------------------------------------------------

    def sum(self, dim: Optional[Union[int, Tuple[int, ...]]] = None, keepdim: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=dim, keepdims=keepdim)
        src = self
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if dim is not None and not keepdim:
                axes = (dim,) if isinstance(dim, int) else tuple(dim)
                for ax in sorted(a % len(shape) for a in axes):
                    g = np.expand_dims(g, ax)
            src._accumulate(np.broadcast_to(g, shape).astype(src.data.dtype))

        return Tensor._make(np.asarray(out_data), (self,), backward, self.device)

    def mean(self, dim: Optional[Union[int, Tuple[int, ...]]] = None, keepdim: bool = False) -> "Tensor":
        if dim is None:
            count = self.data.size
        else:
            axes = (dim,) if isinstance(dim, int) else tuple(dim)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(dim=dim, keepdim=keepdim) * (1.0 / count)

    def max(self, dim: Optional[int] = None, keepdim: bool = False):
        """Max reduction; with a ``dim`` returns ``(values, indices)``."""
        if dim is None:
            out_data = np.asarray(self.data.max())
            mask = self.data == out_data
            src = self

            def backward(grad: np.ndarray) -> None:
                src._accumulate(grad * mask / max(mask.sum(), 1))

            return Tensor._make(out_data, (self,), backward, self.device)

        idx = self.data.argmax(axis=dim)
        out_data = np.take_along_axis(self.data, np.expand_dims(idx, dim), axis=dim)
        if not keepdim:
            out_data = np.squeeze(out_data, axis=dim)
        src = self

        def backward(grad: np.ndarray) -> None:
            g = grad if keepdim else np.expand_dims(grad, dim)
            full = np.zeros_like(src.data)
            np.put_along_axis(full, np.expand_dims(idx, dim), g, axis=dim)
            src._accumulate(full)

        values = Tensor._make(out_data, (self,), backward, self.device)
        return values, Tensor(idx.astype(np.int64), device=self.device)

    def min(self, dim: Optional[int] = None, keepdim: bool = False):
        if dim is None:
            return -((-self).max())
        values, idx = (-self).max(dim=dim, keepdim=keepdim)
        return -values, idx

    # ---- shape ops -------------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src = self
        orig_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad.reshape(orig_shape))

        return Tensor._make(out_data, (self,), backward, self.device)

    view = reshape

    def transpose(self, dim0: int, dim1: int) -> "Tensor":
        out_data = np.swapaxes(self.data, dim0, dim1)
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(np.swapaxes(grad, dim0, dim1))

        return Tensor._make(out_data, (self,), backward, self.device)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise RuntimeError(".T expects a 2-D tensor")
        return self.transpose(0, 1)

    def squeeze(self, dim: Optional[int] = None) -> "Tensor":
        if dim is None:
            return self.reshape(tuple(s for s in self.shape if s != 1))
        if self.shape[dim] != 1:
            return self
        new_shape = list(self.shape)
        new_shape.pop(dim)
        return self.reshape(tuple(new_shape))

    def unsqueeze(self, dim: int) -> "Tensor":
        new_shape = list(self.shape)
        if dim < 0:
            dim = len(new_shape) + dim + 1
        new_shape.insert(dim, 1)
        return self.reshape(tuple(new_shape))

    # ---- matmul ----------------------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = np.matmul(self.data, other.data)
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim == 1:
                    ga = np.multiply.outer(grad, b.data) if grad.ndim else grad * b.data
                elif b.data.ndim == 2 and grad.ndim > 2:
                    # N-D @ 2-D: contract directly instead of broadcasting b.
                    ga = np.matmul(grad, b.data.T)
                else:
                    ga = np.matmul(grad, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(np.asarray(ga), a.data.shape))
            if b.requires_grad:
                if a.data.ndim == 1:
                    gb = np.multiply.outer(a.data, grad) if grad.ndim else a.data * grad
                elif b.data.ndim == 2 and a.data.ndim > 2:
                    # Avoid materializing a per-batch (.., k, n) gradient
                    # stack for a shared 2-D rhs: flatten the batch dims.
                    k = a.data.shape[-1]
                    n = grad.shape[-1]
                    gb = a.data.reshape(-1, k).T @ grad.reshape(-1, n)
                else:
                    gb = np.matmul(np.swapaxes(a.data, -1, -2), grad)
                b._accumulate(_unbroadcast(np.asarray(gb), b.data.shape))

        return Tensor._make(out_data, (a, b), backward, self.device)

    __matmul__ = matmul

    # ---- indexing --------------------------------------------------------------------

    def __getitem__(self, idx) -> "Tensor":
        key = idx.data if isinstance(idx, Tensor) else idx
        if isinstance(key, tuple):
            key = tuple(k.data if isinstance(k, Tensor) else k for k in key)
        out_data = self.data[key]
        src = self
        # A basic key (slices / ints / Ellipsis / None) addresses each target
        # once, so its gradient adds into the parent's, not a scatter-add.
        keys = key if isinstance(key, tuple) else (key,)
        basic = all(isinstance(k, _BASIC_INDEX) for k in keys)

        def backward(grad: np.ndarray) -> None:
            if basic:
                src._accumulate(grad, key=keys)
            else:
                src._accumulate(_scatter_add(src.data.shape, key, grad), own=True)

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward, self.device)

    def __setitem__(self, idx, value) -> None:
        """In-place element assignment (not differentiable).

        Use :func:`repro.tensor.functional.index_put` for a differentiable
        scatter-style update.
        """
        if self.requires_grad and not self.is_leaf:
            raise RuntimeError(
                "in-place assignment on a non-leaf tensor would corrupt the "
                "autograd graph; use F.index_put instead"
            )
        key = idx.data if isinstance(idx, Tensor) else idx
        val = value.data if isinstance(value, Tensor) else value
        self.data[key] = val

    def masked_fill(self, mask: Union["Tensor", np.ndarray], value: float) -> "Tensor":
        m = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
        m = np.broadcast_to(m.astype(bool), self.data.shape)
        out_data = np.where(m, np.asarray(value, dtype=self.data.dtype), self.data)
        src = self

        def backward(grad: np.ndarray) -> None:
            src._accumulate(np.where(m, 0.0, grad))

        return Tensor._make(out_data, (self,), backward, self.device)

    # ---- softmax ----------------------------------------------------------------------

    def softmax(self, dim: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=dim, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=dim, keepdims=True)
        src = self

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=dim, keepdims=True)
            src._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward, self.device)

from .segment import _scatter_add  # noqa: E402  (segment imports Tensor from this module)
