"""Loss functions for link-prediction training."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor

__all__ = ["bce_with_logits", "link_prediction_loss"]


def bce_with_logits(logits: Tensor, targets: Tensor, reduction: str = "mean") -> Tensor:
    """Numerically-stable binary cross entropy on raw logits.

    Uses the identity ``max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    zeros_clamped = logits.clamp(min=0.0)
    loss = zeros_clamped - logits * targets + (1.0 + (-logits.abs()).exp()).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction: {reduction!r}")


def link_prediction_loss(pos: Tensor, neg: Tensor) -> Tensor:
    """The §5 training loss: BCE of *pos* logits against 1 plus *neg* against 0."""
    ones = Tensor(np.ones(len(pos), dtype=np.float32), device=pos.device)
    zeros = Tensor(np.zeros(len(neg), dtype=np.float32), device=neg.device)
    return bce_with_logits(pos, ones) + bce_with_logits(neg, zeros)
