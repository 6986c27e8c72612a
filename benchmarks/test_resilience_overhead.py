"""Fault-free overhead of the resilient runtime (robustness note).

The fault-tolerant trainer buys recovery with three standing costs paid
even when nothing fails: a per-batch in-RAM snapshot (memory/mailbox
copies), periodic atomic checkpoints with CRC + state
validation, and the divergence guard's finiteness sweep after each step.
This benchmark measures that overhead directly: the plain §5 training
loop vs ``ResilientTrainer`` on identical seeded TGN/wiki runs (the
trajectories are bit-identical, so the delta is pure runtime cost),
at two checkpoint cadences.
"""

import gc
import tempfile
import time

import pytest

from conftest import report_table
from repro.bench import ResilientTrainer, train
from repro.bench.experiments import Experiment, ExperimentConfig

EPOCHS = 2
TRAIN_END = 3000
BATCH = 300


def _config():
    return ExperimentConfig(
        model="tgn", dataset="wiki", framework="tglite+opt", epochs=EPOCHS,
        batch_size=BATCH, dim_embed=8, dim_time=8, dim_mem=8, num_layers=1,
        seed=7,
    )


def _plain_seconds():
    """End-to-end wall seconds per epoch for the plain §5 loop."""
    exp = Experiment(_config())
    try:
        t0 = time.perf_counter()
        result = train(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler,
            batch_size=BATCH, epochs=EPOCHS, train_end=TRAIN_END,
        )
        elapsed = time.perf_counter() - t0
        return elapsed / EPOCHS, [e.train_loss for e in result.epochs]
    finally:
        exp.close()


def _resilient_seconds(checkpoint_every):
    """End-to-end wall seconds per epoch including snapshot + checkpoint
    + validation costs (the trainer's own epoch timer excludes the
    checkpoint path, so the comparison times the whole call)."""
    exp = Experiment(_config())
    try:
        trainer = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler,
            batch_size=BATCH, checkpoint_dir=tempfile.mkdtemp(),
            checkpoint_every=checkpoint_every,
        )
        t0 = time.perf_counter()
        result = trainer.train(epochs=EPOCHS, train_end=TRAIN_END)
        elapsed = time.perf_counter() - t0
        return elapsed / EPOCHS, [e.train_loss for e in result.epochs]
    finally:
        exp.close()


def test_fault_free_overhead():
    _plain_seconds()  # warm-up: page in data + numpy code paths
    gc.collect()
    plain_s, plain_losses = _plain_seconds()
    rows = [["plain train()", f"{plain_s:.2f}", "-", "-"]]
    for every in (10, 2):
        gc.collect()
        res_s, res_losses = _resilient_seconds(every)
        assert res_losses == pytest.approx(plain_losses, rel=0, abs=0), (
            "resilient trajectory must be bit-identical to plain training"
        )
        overhead = (res_s / plain_s - 1.0) * 100.0 if plain_s > 0 else 0.0
        rows.append([
            f"resilient (ckpt every {every})",
            f"{res_s:.2f}",
            f"{overhead:+.1f}%",
            "bit-identical",
        ])
        # Snapshots + checkpoints + guards must not dominate training.
        assert res_s < plain_s * 3.0

    report_table(
        "Resilience overhead: fault-free TGN/wiki epoch time",
        ["configuration", "epoch seconds", "overhead", "trajectory"],
        rows,
        filename="resilience_overhead.txt",
    )
