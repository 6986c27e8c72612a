"""Evaluation metrics: average precision (AP) for link prediction.

The paper's accuracy numbers are average precision on the positive/negative
edge scores of the evaluation split.  This is a from-scratch implementation
(no sklearn in this environment) matching
``sklearn.metrics.average_precision_score`` semantics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["average_precision", "roc_auc"]


def average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the precision-recall curve via the step-wise AP sum.

    Args:
        labels: binary ground-truth array.
        scores: predicted scores (higher = more positive).

    Returns AP in [0, 1].  Ties are handled by treating equal-score
    predictions as a single threshold group, matching sklearn.
    """
    labels = np.asarray(labels).astype(np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same length")
    total_pos = labels.sum()
    if total_pos == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(1.0 - sorted_labels)
    # Collapse tied scores: only the last index of each group is a valid
    # operating point.
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    thresholds = np.concatenate([distinct, [len(sorted_scores) - 1]])
    tp = tp[thresholds]
    fp = fp[thresholds]
    precision = tp / np.maximum(tp + fp, 1e-12)
    recall = tp / total_pos
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) identity.

    Handles tied scores by assigning average ranks.  Returns 0.5 when a
    class is missing (the conventional degenerate value).
    """
    labels = np.asarray(labels).astype(bool).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    # Average ranks within tie groups.
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
