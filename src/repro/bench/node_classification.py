"""Dynamic node classification on top of learned temporal embeddings.

The JODIE benchmark datasets carry rare dynamic labels (user banned,
student dropout).  The standard protocol (used by TGAT/TGN/TGL) is a
*decoder* approach: train the TGNN on link prediction, then train a small
MLP decoder on the frozen time-aware source-node embeddings to predict the
interaction labels, reporting ROC-AUC on the chronologically later split.

This module provides that pipeline for any model exposing
``compute_embeddings(batch)`` (all four TGLite models and ManualTGAT).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core import TGraph, iter_batches
from ..data import TemporalDataset
from ..nn import MLP, Adam, bce_with_logits
from ..tensor import Tensor, no_grad
from .metrics import roc_auc

__all__ = ["NodeClassifier", "collect_source_embeddings", "train_node_classifier"]

#: the chronologically earlier share of interactions the decoder trains on
TRAIN_FRACTION = 0.7
LR = 1e-3
BATCH_SIZE = 512
SEED = 0


class NodeClassifier(MLP):
    """Two-layer MLP decoder mapping an embedding to a label logit."""

    DIM_HIDDEN = 64

    def __init__(self, dim_embed: int):
        super().__init__(dim_embed, self.DIM_HIDDEN, 1)

    def forward(self, x: Tensor) -> Tensor:
        return super().forward(x).squeeze(1)


def collect_source_embeddings(
    model,
    g: TGraph,
    dataset: TemporalDataset,
    batch_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stream every edge through the trained model, harvesting source embeddings.

    Returns ``(embeddings, labels)`` where row *i* is the time-aware
    embedding of edge *i*'s source node at the interaction time, paired
    with the dataset's dynamic label for that interaction.  The model runs
    in inference mode; memory-based state keeps streaming forward, as in
    deployment.
    """
    if dataset.edge_labels is None:
        raise ValueError(f"dataset {dataset.name!r} has no dynamic labels")
    model.eval()
    embeds: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    with no_grad():
        for batch in iter_batches(g, batch_size):
            # Link-prediction models expect negatives; any placeholder works
            # since we only read the source-slice of the embeddings.
            batch.neg_nodes = batch.dst
            out = model.compute_embeddings(batch)
            embeds.append(out.numpy()[: len(batch)].copy())
            labels.append(dataset.edge_labels[batch.eids])
    return np.concatenate(embeds), np.concatenate(labels)


def train_node_classifier(
    embeddings: np.ndarray,
    labels: np.ndarray,
    epochs: int = 40,
) -> Tuple[NodeClassifier, float]:
    """Fit the decoder on the chronologically earlier embeddings.

    The first :data:`TRAIN_FRACTION` of the interactions train it with Adam
    (learning rate :data:`LR`, :data:`BATCH_SIZE` rows a step, shuffled by
    :data:`SEED`).  Positive interactions are re-weighted by the inverse
    class frequency (the datasets are ~0.4% positive).  Returns the trained
    decoder and the held-out ROC-AUC.
    """
    n = len(labels)
    split = int(n * TRAIN_FRACTION)
    train_x, train_y = embeddings[:split], labels[:split].astype(np.float32)
    test_x, test_y = embeddings[split:], labels[split:]

    decoder = NodeClassifier(embeddings.shape[1])
    optimizer = Adam(decoder.parameters(), lr=LR)
    pos_rate = max(train_y.mean(), 1e-6)
    pos_weight = float((1.0 - pos_rate) / pos_rate)
    rng = np.random.default_rng(SEED)

    for _ in range(epochs):
        order = rng.permutation(split)
        for lo in range(0, split, BATCH_SIZE):
            idx = order[lo : lo + BATCH_SIZE]
            logits = decoder(Tensor(train_x[idx]))
            y = train_y[idx]
            weights = Tensor(np.where(y > 0, pos_weight, 1.0).astype(np.float32))
            loss = (bce_with_logits(logits, Tensor(y), reduction="none") * weights).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

    decoder.eval()
    with no_grad():
        scores = decoder(Tensor(test_x)).numpy()
    return decoder, roc_auc(test_y, scores)
