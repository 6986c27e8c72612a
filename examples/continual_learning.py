"""Continual learning: train on the serving log, hot-swap under drift.

`examples/durable_serving.py` ends with every committed batch durable in
a write-ahead log.  This example closes the loop: a `ContinualLearner`
*tails* that log while the server is running — with a prefix-consistent
`WALCursor`, so it only ever sees committed batches (the runtime checks
a batch before it logs it, so a quarantined one is never there) — and
fine-tunes the link model online, hot-swapping the updated embedding
table into the server between requests.

The workload is a `distribution_drift` scenario stream: halfway through,
every user group's item preferences shift by one block, so a model
frozen at pretraining time starts ranking yesterday's preferences.  The
script runs the same stream three ways and scores each against the
stream's ground-truth labels:

1. **frozen** — the pretrained model serves unchanged (the baseline the
   drift hurts);
2. **continual** — WAL tail → `ResilientTrainer.fine_tune` → model hot
   swap, gated by a *staleness budget* (max event-time lag between the
   server's committed watermark and the published model);
3. **oracle** — offline hindsight training over the whole stream before
   serving (the upper bound).

It then sweeps the staleness budget from 0 to infinity to show the
freshness/cost trade, and verifies the serve state digest is
bit-identical across all modes: hot swaps touch only the read path.

Run with:  PYTHONPATH=src python examples/continual_learning.py
"""

import tempfile

import numpy as np

from repro.bench.metrics import average_precision
from repro.scenarios import gap_recovered, make_stream, run_closed_loop

BUDGETS = [0.0, 500.0, 2000.0, float("inf")]


def post_drift_ap(stream, scores):
    """AP over the post-drift phase — where frozen and continual diverge."""
    mask = (stream.phase == 2) & np.isfinite(scores)
    return average_precision(stream.labels[mask], scores[mask])


def main():
    stream = make_stream(
        "distribution_drift",
        num_events=2400,
        seed=11,
        noise_frac=0.45,
        knobs={"mode": "abrupt", "drift_start": 0.5},
    )
    print(f"stream: {stream.spec.name}, {len(stream)} events, "
          f"digest {stream.digest()[:12]}…")

    runs = {}
    for mode in ("frozen", "continual", "oracle"):
        runs[mode] = run_closed_loop(
            stream, mode=mode, seed=3,
            workdir=tempfile.mkdtemp(prefix=f"continual-{mode}-"),
        )
        run = runs[mode]
        line = (f"  {mode:9s} overall AP {run['summary']['overall_ap']:.4f}  "
                f"post-drift AP {post_drift_ap(stream, run['scores']):.4f}")
        if run["learner"]:
            line += (f"  ({run['learner']['swaps']} hot swaps, "
                     f"{run['learner']['events_trained']} events trained)")
        print(line)

    frozen = post_drift_ap(stream, runs["frozen"]["scores"])
    cont = post_drift_ap(stream, runs["continual"]["scores"])
    oracle = post_drift_ap(stream, runs["oracle"]["scores"])
    print(f"\ngap recovered: {gap_recovered(frozen, cont, oracle):.0%} of the "
          f"frozen→oracle AP gap ({frozen:.3f} → {oracle:.3f})")

    digests = {run["state_digest"] for run in runs.values()}
    print(f"serve state digests across modes: "
          f"{'bit-identical' if len(digests) == 1 else 'DIVERGED'} "
          f"({next(iter(digests))[:12]}…)")

    print("\nstaleness budget sweep (freshness vs fine-tune cost):")
    print(f"  {'budget':>8s}  {'swaps':>5s}  {'overall AP':>10s}")
    for budget in BUDGETS:
        run = run_closed_loop(
            stream, mode="continual", seed=3, staleness_budget=budget,
            workdir=tempfile.mkdtemp(prefix="continual-sweep-"),
        )
        label = "inf" if np.isinf(budget) else f"{budget:g}"
        print(f"  {label:>8s}  {run['learner']['swaps']:>5d}  "
              f"{run['summary']['overall_ap']:>10.4f}")
    print("budget=inf never retrains: it reproduces the frozen baseline.")


if __name__ == "__main__":
    main()
