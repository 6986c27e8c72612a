"""The TimeEncode module: Eq. (8) of the paper.

``Phi(dt) = cos(omega * dt + phi)`` maps a scalar time delta to a
``dim``-dimensional vector.  Following TGAT, the frequencies are initialized
to a geometric progression ``1 / 10^(k * alpha)`` spanning several decades,
and the bias starts at zero.  The module is trainable; the paper's
*time-precomputation* optimization keeps precomputed tables valid as long as
the weights do not change (TGLite invalidates its tables when training
updates them — see :mod:`repro.core.op.precompute`).
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.segment import time_phase
from .module import Module, Parameter

__all__ = ["TimeEncode"]


class TimeEncode(Module):
    """Cosine time encoder with geometric frequency init.

    Args:
        dim: dimensionality of the output time vector.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        freqs = 1.0 / (10.0 ** np.linspace(0.0, 9.0, dim, dtype=np.float32))
        self.weight = Parameter(freqs)
        self.bias = Parameter(np.zeros(dim, dtype=np.float32))
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped whenever the weights change.

        Precomputed-time caches key on this to stay semantically valid.
        """
        return self._version

    def mark_updated(self) -> None:
        """Signal that weight values changed (called after optimizer steps)."""
        self._version += 1

    def _phase(self, deltas: np.ndarray) -> np.ndarray:
        """``omega * dt + phi`` for a flat array of deltas, ``(N, dim)``."""
        return time_phase(deltas, self.weight.data, self.bias.data)

    def part(self, deltas: np.ndarray):
        """The encoding of *deltas* as a time part of ``segment_attention``.

        ``(deltas, omega, phi)``: the kernel encodes it one row tile at a
        time, with the bits of ``forward``'s output passed as a dense part,
        and keeps only the phase for the backward.
        """
        return np.asarray(deltas, dtype=np.float32).reshape(-1), self.weight, self.bias

    def forward(self, deltas: Tensor) -> Tensor:
        """Encode time deltas, as one autograd node.

        Args:
            deltas: tensor of shape ``(N,)`` or ``(N, 1)`` of time deltas.

        Returns:
            tensor of shape ``(N, dim)``.  With ``s = sin(phase) * g``, the
            backward is ``d_omega = -(dt @ s)``, ``d_phi = -(ones @ s)`` and,
            only if *deltas* requires it, ``d_dt = -(s @ omega)``.
        """
        weight, bias = self.weight, self.bias
        flat = deltas.data.reshape(-1)
        phase = self._phase(flat)

        def backward(grad: np.ndarray) -> None:
            s = np.sin(phase)
            s *= grad
            if weight.requires_grad:
                weight._accumulate(-(flat @ s), own=True)
            if bias.requires_grad:
                bias._accumulate(-(np.ones(len(s), s.dtype) @ s), own=True)
            if deltas.requires_grad:
                deltas._accumulate(-(s @ weight.data).reshape(deltas.shape), own=True)

        return Tensor._make(np.cos(phase), (deltas, weight, bias), backward, deltas.device)

    def zero(self, n: int, device) -> Tensor:
        """``Phi(0)`` for *n* rows on *device*, as one autograd node.

        Every row is ``cos(phi)``: the output broadcasts one row and the
        backward keeps that row's phase, not an ``(n, dim)`` one.  The bits
        are ``forward``'s on *n* zero deltas: with ``s = sin(phase) * g``,
        ``d_omega = -(0 @ s)`` and ``d_phi = -(ones @ s)``.
        """
        weight, bias = self.weight, self.bias
        phase = self._phase(np.zeros(1, dtype=np.float32))

        def backward(grad: np.ndarray) -> None:
            s = np.sin(phase) * grad
            if weight.requires_grad:
                weight._accumulate(-(np.zeros(n, s.dtype) @ s), own=True)
            if bias.requires_grad:
                bias._accumulate(-(np.ones(n, s.dtype) @ s), own=True)

        rows = np.broadcast_to(np.cos(phase), (n, self.dim))
        return Tensor._make(rows, (weight, bias), backward, device)

    def encode_raw(self, deltas: np.ndarray) -> np.ndarray:
        """Non-autograd fast path for inference-time precomputation: the forward's bits."""
        phase = self._phase(np.asarray(deltas, dtype=np.float32).reshape(-1))
        return np.cos(phase, out=phase)
