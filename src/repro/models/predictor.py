"""Link-prediction head shared by all four TGNN models.

Follows TGL's ``EdgePredictor``: project source and destination embeddings
separately, combine with ReLU, and emit a scalar logit per candidate edge.
"""

from __future__ import annotations

from typing import Tuple

from ..nn import Linear, Module
from ..tensor import Tensor

__all__ = ["EdgePredictor"]


class EdgePredictor(Module):
    """Score candidate edges from endpoint embeddings.

    Args:
        dim: embedding dimensionality of each endpoint, and the hidden
            width of the combiner.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.src_fc = Linear(dim, dim)
        self.dst_fc = Linear(dim, dim)
        self.out_fc = Linear(dim, 1)

    def forward(self, h_src: Tensor, h_dst: Tensor) -> Tensor:
        """Logits of shape ``(n,)`` for each (src, dst) embedding pair."""
        h = (self.src_fc(h_src) + self.dst_fc(h_dst)).relu()
        return self.out_fc(h).squeeze(1)

    def score_batch(self, embeds: Tensor, batch_size: int) -> Tuple[Tensor, Tensor]:
        """Split stacked ``[src, dst, neg]`` embeddings and score pos/neg pairs.

        Args:
            embeds: ``(3 * batch_size, dim)`` embeddings laid out as the
                head block of a batch produces them.
            batch_size: number of positive edges in the batch.

        Returns:
            ``(pos_logits, neg_logits)``, each of shape ``(batch_size,)``.
        """
        h_src = embeds[:batch_size]
        h_dst = embeds[batch_size : 2 * batch_size]
        h_neg = embeds[2 * batch_size :]
        return self.forward(h_src, h_dst), self.forward(h_src, h_neg)
