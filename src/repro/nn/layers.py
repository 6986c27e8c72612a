"""Core neural layers: Linear, LayerNorm, Dropout, MLP."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..tensor import Tensor, dropout_mask
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "LayerNorm",
    "Dropout",
    "MLP",
]


class Linear(Module):
    """Affine transform ``y = x W^T + b`` with Kaiming-uniform init."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features), dtype=np.float32))
        init.kaiming_uniform_(self.weight)
        if bias:
            bound = 1.0 / math.sqrt(in_features) if in_features > 0 else 0.0
            self.bias = Parameter(np.empty((out_features,), dtype=np.float32))
            init.uniform_(self.bias, -bound, bound)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        """``x Wᵀ + b`` over the last axis, as one autograd node.

        Any-rank input is multiplied as its ``(rows, in_features)`` view; the
        backward is ``g @ W``, ``gᵀ @ x`` and ``ones @ g``.
        """
        weight, bias = self.weight, self.bias
        rows = x.data.reshape(-1, self.in_features)
        out = rows @ weight.data.T
        if bias is not None:
            out += bias.data

        def backward(grad: np.ndarray) -> None:
            g = grad.reshape(-1, self.out_features)
            if x.requires_grad:
                x._accumulate((g @ weight.data).reshape(x.shape), own=True)
            if weight.requires_grad:
                weight._accumulate(g.T @ rows, own=True)
            if bias is not None and bias.requires_grad:
                bias._accumulate(np.ones(len(g), g.dtype) @ g, own=True)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(out.reshape(x.shape[:-1] + (self.out_features,)), parents, backward,
                            x.device)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5, elementwise_affine: bool = True):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        if elementwise_affine:
            self.weight = Parameter(np.ones((normalized_shape,), dtype=np.float32))
            self.bias = Parameter(np.zeros((normalized_shape,), dtype=np.float32))
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        """Normalize each row of the last axis, as one autograd node.

        The backward is the analytic one: with ``x̂`` the normalized rows,
        ``σ`` their ``sqrt(var + eps)`` and ``ĝ = g w``, ``dx = (ĝ - mean(ĝ) -
        x̂ mean(ĝ x̂)) / σ``; row means and the parameters' sums over rows are
        matrix-vector products.
        """
        width = self.normalized_shape
        weight, bias = self.weight, self.bias
        rows = x.data.reshape(-1, width)
        inv_width = np.asarray(1.0 / width, dtype=rows.dtype)
        centered = rows - rows.sum(axis=-1, keepdims=True) * inv_width
        # Re-center: a near-constant float32 row leaves a mean-rounding
        # residual that 1/sqrt(var + eps) would amplify when var ~ 0.
        centered -= centered.sum(axis=-1, keepdims=True) * inv_width
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_width
        std = np.sqrt(var + np.asarray(self.eps, dtype=rows.dtype))
        normed = np.divide(centered, std, out=centered)
        out = normed if weight is None else normed * weight.data + bias.data

        def backward(grad: np.ndarray) -> None:
            g = grad.reshape(-1, width)
            g_normed = g * normed
            if weight is not None:
                ones = np.ones(len(g), g.dtype)
                if weight.requires_grad:
                    weight._accumulate(ones @ g_normed, own=True)
                if bias.requires_grad:
                    bias._accumulate(ones @ g, own=True)
            if x.requires_grad:
                scale = np.ones(width, g.dtype) if weight is None else weight.data
                dx = g * scale
                dx -= ((g @ scale) * inv_width)[:, None]
                dx -= normed * ((g_normed @ scale) * inv_width)[:, None]
                dx /= std
                x._accumulate(dx.reshape(x.shape), own=True)

        parents = (x,) if weight is None else (x, weight, bias)
        return Tensor._make(out.reshape(x.shape), parents, backward, x.device)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return x * dropout_mask(x.shape, self.p, device=x.device)


class MLP(Module):
    """Two-layer feed-forward network with ReLU, as used in edge predictors."""

    def __init__(self, in_features: int, hidden_features: int, out_features: int, dropout: float = 0.0):
        super().__init__()
        self.fc1 = Linear(in_features, hidden_features)
        self.fc2 = Linear(hidden_features, out_features)
        self.drop = Dropout(dropout)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.drop(self.fc1(x).relu()))
