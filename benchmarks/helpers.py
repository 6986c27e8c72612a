"""Shared measurement harness for the benchmark suite.

The paper reports whole-epoch times on a GPU testbed; this numpy substrate
is orders of magnitude slower per FLOP, so every benchmark times a fixed
chronological *slice* of each split instead of a full epoch.  Relative
comparisons (who wins, by what factor) are preserved because every
framework setting processes the identical slice with identical negatives.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Optional, Tuple

from repro.bench.experiments import Experiment, ExperimentConfig
from repro.bench.trainer import evaluate, train_epoch, warm_replay

#: Edges timed per training measurement (standard benchmarks).
TRAIN_SLICE = 4000
#: Edges timed per inference measurement.
TEST_SLICE = 2500
#: Edges replayed to warm up state before timing inference.
WARM_SLICE = 3000

STANDARD_DATASETS = ("wiki", "mooc", "reddit", "lastfm")
LARGE_DATASETS = ("wikitalk", "gdelt")
MODEL_ORDER = ("jodie", "apan", "tgat", "tgn")
FRAMEWORK_ORDER = ("tgl", "tglite", "tglite+opt")


def make_config(dataset: str, model: str, framework: str, placement: str, **overrides) -> ExperimentConfig:
    """The shared hyperparameter setting for all benchmarks (§5.1 scaled).

    Paper: batch 600, 2 layers, 10 recent neighbors, mailbox 10 for APAN.
    Scaled: batch 300 (edge counts are ~50x smaller), dims 32 (from 100).
    """
    defaults = dict(
        batch_size=300,
        num_layers=2,
        num_nbrs=10,
        num_heads=2,
        dim_time=32,
        dim_embed=32,
        dim_mem=32,
        mailbox_slots=10,
        sampling="recent",
        epochs=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(dataset=dataset, model=model, framework=framework,
                            placement=placement, **defaults)


def skip_tglite_opt_for_jodie(model: str, framework: str) -> bool:
    """The paper skips TGLite+opt for JODIE (no further operators apply)."""
    return model == "jodie" and framework == "tglite+opt"


def measure_training(cfg: ExperimentConfig, slice_edges: int = TRAIN_SLICE) -> Dict[str, float]:
    """Train one timed slice; returns seconds, loss, and validation AP."""
    gc.collect()  # keep generational GC pauses out of the timed region
    exp = Experiment(cfg)
    try:
        stop = min(exp.train_end, slice_edges)
        seconds, loss = train_epoch(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, cfg.batch_size, stop=stop
        )
        return {"seconds": seconds, "loss": loss}
    finally:
        exp.close()


def measure_training_with_ap(cfg: ExperimentConfig, epochs: int = 2,
                             slice_edges: int = TRAIN_SLICE,
                             eval_edges: int = TEST_SLICE) -> Dict[str, float]:
    """Multi-epoch training, evaluating the validation slice each epoch."""
    gc.collect()
    exp = Experiment(cfg)
    try:
        stop = min(exp.train_end, slice_edges)
        # Evaluate on the edges immediately following the trained slice so
        # memory-based models see a contiguous stream (sliced equivalent of
        # the paper's train/validation protocol).
        val_stop = min(exp.val_end, stop + eval_edges)
        best_ap, total_seconds = 0.0, 0.0
        for _ in range(epochs):
            exp.model.reset_state()
            seconds, _ = train_epoch(
                exp.model, exp.g, exp.optimizer, exp.neg_sampler, cfg.batch_size, stop=stop
            )
            total_seconds += seconds
            _, ap = evaluate(exp.model, exp.g, exp.neg_sampler, cfg.batch_size,
                             start=stop, stop=val_stop)
            best_ap = max(best_ap, ap)
        return {"seconds": total_seconds / epochs, "ap": best_ap}
    finally:
        exp.close()


def measure_inference(cfg: ExperimentConfig, train_edges: int = TRAIN_SLICE,
                      test_edges: int = TEST_SLICE,
                      warm_edges: int = WARM_SLICE) -> Dict[str, float]:
    """Briefly train, warm state, then time test-slice inference."""
    gc.collect()
    exp = Experiment(cfg)
    try:
        stop = min(exp.train_end, train_edges)
        if stop > 0:
            train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler, cfg.batch_size, stop=stop)
        warm_start = max(0, exp.val_end - min(warm_edges, exp.val_end))
        warm_replay(exp.model, exp.g, exp.neg_sampler, cfg.batch_size,
                    stop=exp.val_end, start=warm_start)
        test_stop = min(exp.test_end, exp.val_end + test_edges)
        seconds, ap = evaluate(exp.model, exp.g, exp.neg_sampler, cfg.batch_size,
                               start=exp.val_end, stop=test_stop)
        return {"seconds": seconds, "ap": ap}
    finally:
        exp.close()


def speedup(base_seconds: float, other_seconds: float) -> str:
    if other_seconds <= 0:
        return "-"
    return f"{base_seconds / other_seconds:.2f}x"
