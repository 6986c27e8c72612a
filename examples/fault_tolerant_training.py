"""Fault-tolerant training: injection, recovery, and bit-exact resume.

Production training jobs fail in ways a benchmark harness never sees:
a kernel throws once under memory pressure, a gradient turns NaN, the
process itself is killed between checkpoints.  This example drives the
resilience runtime (``repro.resilience`` + ``repro.bench.ResilientTrainer``)
through all of them on a seeded TGN/wiki run and shows the recovered run
is **bit-identical** to a fault-free run of the same seed:

* a ``FaultInjector`` deterministically injects a transient sampling
  kernel fault (retried from an in-RAM snapshot) and a NaN-gradient
  batch (rolled back to the last atomic checkpoint and replayed);
* a second run is hard-killed mid-epoch (``SimulatedProcessKill``) and
  restarted with ``resume=True`` from the checkpoint's stream cursor —
  parameters, node memory, mailbox and optimizer moments land exactly
  where the uninterrupted run does (no RNG state is restored: negatives
  and dropout masks are keyed on the pass and the batch's edge ids);
* repeated faults from one kernel site degrade it to the bit-identical
  reference path (visible in ``ctx.degraded``).

Exits nonzero when either bit-identity check fails.

Run:  python examples/fault_tolerant_training.py
"""

import os
import sys
import tempfile

import numpy as np


def _fingerprint(exp):
    return (
        [p.data.copy() for p in exp.model.parameters()],
        exp.g.mem.data.data.copy(),
        exp.g.mailbox.mail.data.copy(),
    )


def _equal(a, b):
    return (
        all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
        and np.array_equal(a[1], b[1])
        and np.array_equal(a[2], b[2])
    )


def _build():
    from repro.bench.experiments import Experiment, ExperimentConfig

    cfg = ExperimentConfig(
        model="tgn", dataset="wiki", framework="tglite+opt", epochs=2,
        batch_size=300, dim_embed=8, dim_time=8, dim_mem=8, num_layers=1,
        seed=7,
    )
    return Experiment(cfg)


def _trainer(exp, ckdir):
    from repro.bench import ResilientTrainer

    return ResilientTrainer(
        exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
        checkpoint_dir=ckdir, checkpoint_every=2,
    )


def main():
    from repro.bench import ResilientTrainer  # noqa: F401 (import check)
    from repro.resilience import FaultInjector, SimulatedProcessKill

    workdir = tempfile.mkdtemp(prefix="resilience-demo-")
    train_end = 900

    # ---- reference: fault-free seeded run --------------------------------
    exp = _build()
    clean = _trainer(exp, os.path.join(workdir, "clean"))
    clean_result = clean.train(epochs=2, train_end=train_end)
    clean_fp = _fingerprint(exp)
    exp.close()
    print(f"fault-free run:   losses = "
          f"{[round(e.train_loss, 6) for e in clean_result.epochs]}")

    # ---- faulted run: kernel fault + NaN gradients -----------------------
    injector = FaultInjector(
        seed=11,
        schedules={
            "kernel.sample": [(0, 1)],   # transient sampling-kernel fault
            "nan_grad": [(0, 2)],        # poisons params -> rollback
        },
    )
    exp = _build()
    faulted = _trainer(exp, os.path.join(workdir, "faulted"))
    with injector:  # faults fire only while an injector is installed
        faulted_result = faulted.train(epochs=2, train_end=train_end)
    faulted_fp = _fingerprint(exp)
    exp.close()
    print(f"faulted run:      losses = "
          f"{[round(e.train_loss, 6) for e in faulted_result.epochs]}")
    for ev in faulted_result.events:
        if ev.kind != "checkpoint":
            print(f"  [{ev.kind:>14s}] epoch {ev.epoch} batch {ev.batch}  {ev.detail}")
    recovered = _equal(clean_fp, faulted_fp)
    print(f"recovered bit-identical to fault-free: {recovered}")

    # ---- hard kill mid-epoch, then bit-exact resume ----------------------
    ckdir = os.path.join(workdir, "killed")
    exp = _build()
    killer = FaultInjector(seed=5, schedules={"process.kill": [(1, 1)]})
    try:
        with killer:
            _trainer(exp, ckdir).train(epochs=2, train_end=train_end)
    except SimulatedProcessKill as exc:
        print(f"\nprocess killed at (epoch {exc.epoch}, batch {exc.batch}); "
              f"restarting from checkpoint …")
    exp.close()

    exp = _build()  # a fresh "process"
    resumed_result = _trainer(exp, ckdir).train(
        epochs=2, train_end=train_end, resume=True
    )
    resumed_fp = _fingerprint(exp)
    exp.close()
    first = resumed_result.events[0]
    resumed = _equal(clean_fp, resumed_fp)
    print(f"resumed from (epoch {first.epoch}, batch {first.batch}); "
          f"final state bit-identical: {resumed}")

    # ---- persistent kernel fault: graceful degradation -------------------
    exp = _build()
    stubborn = FaultInjector(
        seed=2,
        schedules={"kernel.sample": [(0, 0), (0, 1), (0, 2)]},
    )
    with stubborn:
        degraded_result = _trainer(exp, os.path.join(workdir, "degraded")).train(
            epochs=1, train_end=train_end
        )
    ctx = exp.g.ctx
    print(f"\nafter {ctx.counters.get('kernel_faults:kernel.sample', 0)} kernel faults: "
          f"degraded sites = {ctx.degraded}")
    print(f"training still completed {len(degraded_result.epochs)} epoch(s) "
          f"on the reference path")
    exp.close()
    return 0 if recovered and resumed else 1


if __name__ == "__main__":
    sys.exit(main())
