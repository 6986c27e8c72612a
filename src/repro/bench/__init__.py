"""Benchmark harness: trainer, metrics, and experiment runner."""

from .checkpoint import checkpoint_arrays, load_checkpoint, save_checkpoint
from .metrics import average_precision, roc_auc
from .node_classification import (
    NodeClassifier,
    collect_source_embeddings,
    train_node_classifier,
)
from .resilient import ResilienceEvent, ResilientResult, ResilientTrainer
from .trainer import (
    EpochResult,
    TrainResult,
    evaluate,
    train,
    train_epoch,
    train_step,
    warm_replay,
)

__all__ = [
    "checkpoint_arrays",
    "load_checkpoint",
    "save_checkpoint",
    "average_precision",
    "roc_auc",
    "NodeClassifier",
    "collect_source_embeddings",
    "train_node_classifier",
    "ResilienceEvent",
    "ResilientResult",
    "ResilientTrainer",
    "EpochResult",
    "TrainResult",
    "evaluate",
    "train",
    "train_epoch",
    "train_step",
    "warm_replay",
]
