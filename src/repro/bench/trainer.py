"""Link-prediction training and inference harness.

Implements the experimental protocol of §5: chronological batches, one
negative per positive edge, BCE loss on edge logits, per-epoch wall-clock
timing, and average-precision scoring on the evaluation split.  The same
harness drives both the TGLite-based models and the TGL-baseline models —
any model exposing ``forward(batch) -> (pos_logits, neg_logits)`` and
``reset_state()`` works.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core import TBatch, TGraph, iter_batches
from ..data import NegativeSampler
from ..nn import Optimizer, TimeEncode, link_prediction_loss
from ..spans import span
from ..tensor import no_grad
from ..tensor.random import dropout_pass, dropout_step
from .metrics import average_precision

__all__ = [
    "EpochResult", "TrainResult", "train_step", "train_epoch", "evaluate", "train", "warm_replay",
]


@dataclass
class EpochResult:
    """One epoch's timing and quality numbers."""

    epoch: int
    train_seconds: float
    train_loss: float
    eval_seconds: float = 0.0
    eval_ap: float = 0.0


@dataclass
class TrainResult:
    """Aggregated results of a training run."""

    epochs: List[EpochResult] = field(default_factory=list)

    @property
    def best_ap(self) -> float:
        return max((e.eval_ap for e in self.epochs), default=0.0)


def _mark_time_encoders_updated(model) -> None:
    """Bump TimeEncode versions so precomputed tables invalidate."""
    for module in model.modules():
        if isinstance(module, TimeEncode):
            module.mark_updated()


@contextmanager
def _sampling_pass(model, pass_index: int):
    """Key every neighbour sampler's uniform draws and every dropout mask on
    *pass_index* (the training epoch) inside the block; everything else
    runs at pass 0."""
    samplers = [m.sampler for m in model.modules() if getattr(m, "sampler", None)]
    for sampler in samplers:
        sampler.pass_index = pass_index
    dropout_pass(pass_index)
    try:
        yield
    finally:
        for sampler in samplers:
            sampler.pass_index = 0
        dropout_pass(0)


def train_step(model, batch: TBatch, optimizer: Optimizer, neg_sampler: NegativeSampler) -> float:
    """One optimisation step of the §5 protocol on *batch*; returns the loss.

    The only forward → loss → backward → step sequence the trainers run:
    the plain loop (:func:`train_epoch`) and the recovery loop
    (:class:`~repro.bench.resilient.ResilientTrainer`) both call it.
    Negatives are drawn before any model work, so the sampler's draw
    marks the batch boundary; then the step keys its dropout masks on
    ``batch.start``.  The model must already be in train mode.  The
    step's Figure-7 stages are marked as :mod:`repro.spans` spans.
    """
    with span("batch_prep"):
        batch.neg_nodes = neg_sampler.sample(len(batch))
        dropout_step(batch.start)
        optimizer.zero_grad()
    pos, neg = model(batch)
    with span("pred_loss"):
        loss = link_prediction_loss(pos, neg)
    with span("backward"):
        loss.backward()
    with span("opt_step"):
        optimizer.step()
        _mark_time_encoders_updated(model)
    return loss.item()


def train_epoch(
    model,
    g: TGraph,
    optimizer: Optimizer,
    neg_sampler: NegativeSampler,
    batch_size: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> Tuple[float, float]:
    """Run one training epoch over edges ``[start, stop)``.

    Returns ``(elapsed_seconds, mean_loss)``.
    """
    model.train()
    neg_sampler.reset()
    losses = []
    t0 = time.perf_counter()
    for batch in iter_batches(g, batch_size, start=start, stop=stop):
        losses.append(train_step(model, batch, optimizer, neg_sampler))
    elapsed = time.perf_counter() - t0
    return elapsed, float(np.mean(losses)) if losses else 0.0


def evaluate(
    model,
    g: TGraph,
    neg_sampler: NegativeSampler,
    batch_size: int,
    start: int,
    stop: Optional[int] = None,
) -> Tuple[float, float]:
    """Score edges ``[start, stop)`` in inference mode.

    Returns ``(elapsed_seconds, average_precision)``.  Memory-based models
    still update their persistent state while evaluating (the standard
    streaming protocol), but no gradients flow.
    """
    model.eval()
    neg_sampler.reset()
    pos_scores: List[np.ndarray] = []
    neg_scores: List[np.ndarray] = []
    t0 = time.perf_counter()
    with no_grad():
        for batch in iter_batches(g, batch_size, start=start, stop=stop):
            batch.neg_nodes = neg_sampler.sample(len(batch))
            pos, neg = model(batch)
            pos_scores.append(pos.data.copy())
            neg_scores.append(neg.data.copy())
    elapsed = time.perf_counter() - t0
    pos_all = np.concatenate(pos_scores) if pos_scores else np.empty(0)
    neg_all = np.concatenate(neg_scores) if neg_scores else np.empty(0)
    labels = np.concatenate([np.ones_like(pos_all), np.zeros_like(neg_all)])
    scores = np.concatenate([pos_all, neg_all])
    ap = average_precision(labels, scores) if len(scores) else 0.0
    return elapsed, ap


def warm_replay(
    model, g: TGraph, neg_sampler: NegativeSampler, batch_size: int, stop: int, start: int = 0
) -> None:
    """Reset state, then replay edges ``[start, stop)`` in inference mode.

    Used before timing test-set inference for memory-based models, mirroring
    TGL's recreate-memory-before-inference behaviour noted in §5.3.
    """
    model.reset_state()
    evaluate(model, g, neg_sampler, batch_size, start=start, stop=stop)


def train(
    model,
    g: TGraph,
    optimizer: Optimizer,
    neg_sampler: NegativeSampler,
    batch_size: int,
    epochs: int,
    train_end: int,
    eval_end: Optional[int] = None,
) -> TrainResult:
    """Full training loop: per epoch, reset state, train, then evaluate.

    Args:
        train_end: training edges are ``[0, train_end)``.
        eval_end: evaluation edges are ``[train_end, eval_end)``; omit to
            skip per-epoch evaluation.
    """
    result = TrainResult()
    for epoch in range(epochs):
        model.reset_state()
        with _sampling_pass(model, epoch):
            train_s, loss = train_epoch(
                model, g, optimizer, neg_sampler, batch_size, start=0, stop=train_end,
            )
        eval_s, ap = (0.0, 0.0)
        if eval_end is not None and eval_end > train_end:
            eval_s, ap = evaluate(
                model, g, neg_sampler, batch_size, start=train_end, stop=eval_end,
            )
        result.epochs.append(EpochResult(epoch, train_s, loss, eval_s, ap))
    return result
