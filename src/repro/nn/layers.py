"""Core neural layers: Linear, LayerNorm, Dropout, MLP."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..tensor import Tensor, dropout_mask, zeros
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
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out

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
        mu = x.mean(dim=-1, keepdim=True)
        centered = x - mu
        # Re-center: a near-constant float32 row leaves a mean-rounding
        # residual that 1/sqrt(var + eps) would amplify when var ~ 0.
        centered = centered - centered.mean(dim=-1, keepdim=True)
        var = (centered * centered).mean(dim=-1, keepdim=True)
        normed = centered / (var + self.eps).sqrt()
        if self.weight is not None:
            normed = normed * self.weight + self.bias
        return normed


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
