"""Accuracy under drift: frozen vs WAL-tailing continual vs oracle.

The closed loop (``repro.scenarios``) pretrains a link model on the
warmup prefix of a scenario stream, serves the rest through the durable
:class:`~repro.serve.ServeRuntime`, and — in continual mode — tails the
serving WAL with a prefix-consistent cursor, fine-tuning and hot-swapping
the model between requests.  Two curves are recorded:

* **accuracy under drift** — overall / post-shift / worst-window AP per
  mode across three scenarios, plus the share of the frozen→oracle AP
  gap that continual learning recovers;
* **staleness vs quality** — sweeping the staleness budget from 0 (swap
  on every committed batch) to ∞ (frozen) trades model freshness against
  fine-tune count, and quality must degrade monotonically-ish toward the
  frozen endpoint.

Everything is deterministic per seed, so the recorded tables are
reproducible bit-for-bit.
"""

import tempfile

import numpy as np

from conftest import SWAPPED_MODEL, report_table
from repro.bench.metrics import average_precision
from repro.scenarios import gap_recovered, make_stream, run_closed_loop

LOOP_SEED = 3
STREAM_KW = dict(num_events=2400, seed=11, noise_frac=0.45)

SCENARIOS = [
    ("drift/abrupt", "distribution_drift",
     {"mode": "abrupt", "drift_start": 0.5}),
    ("drift/gradual", "distribution_drift",
     {"mode": "gradual", "drift_start": 0.4, "drift_end": 0.7}),
    ("node_churn", "node_churn", {}),
]

#: budgets swept for the staleness-vs-quality curve (event-time units;
#: the drift streams span t_max = 10_000).
BUDGETS = [0.0, 500.0, 2000.0, 5000.0, float("inf")]


def _post_shift_ap(stream, scores):
    """AP over the stream's final phase(s) — after the behavior changed."""
    p = stream.phase.max()
    mask = (stream.phase >= p - 1) & np.isfinite(scores)
    return average_precision(stream.labels[mask], scores[mask])


def _run(stream, mode, **kw):
    return run_closed_loop(
        stream, mode=mode, seed=LOOP_SEED,
        workdir=tempfile.mkdtemp(prefix=f"drift-{mode}-"), **kw,
    )


def test_accuracy_under_drift_and_staleness_curves():
    rows = []
    drift_stream = None
    for label, name, knobs in SCENARIOS:
        stream = make_stream(name, knobs=knobs, **STREAM_KW)
        if label == "drift/abrupt":
            drift_stream = stream
        runs = {m: _run(stream, m) for m in ("frozen", "continual", "oracle")}
        post = {m: _post_shift_ap(stream, r["scores"]) for m, r in runs.items()}
        recovered = gap_recovered(post["frozen"], post["continual"],
                                  post["oracle"])
        for m in ("frozen", "continual", "oracle"):
            summary = runs[m]["summary"]
            rows.append([
                label, m,
                f"{summary['overall_ap']:.4f}",
                f"{post[m]:.4f}",
                f"{summary['min_window_ap']:.4f}",
                f"{recovered:.2f}" if m == "continual" else "-",
            ])
        # hot swaps never touch the commit path
        digests = {r["state_digest"] for r in runs.values()}
        assert len(digests) == 1, f"{label}: serve state diverged across modes"
        if label.startswith("drift/"):
            assert recovered >= 0.5, (
                f"{label}: continual recovered only {recovered:.2f} of the "
                f"frozen→oracle gap"
            )

    report_table(
        "scenario drift: accuracy under drift (frozen vs continual vs oracle, "
        f"{STREAM_KW['num_events']} events, noise {STREAM_KW['noise_frac']})",
        ["scenario", "mode", "overall AP", "post-shift AP", "min window AP",
         "gap recovered"],
        rows,
        filename="scenario_drift.txt",
        clock="simulated",
        footer=[SWAPPED_MODEL],
    )

    # ---- staleness vs quality on the abrupt-drift stream ----
    sweep_rows = []
    overall = []
    for budget in BUDGETS:
        run = _run(drift_stream, "continual", staleness_budget=budget)
        summary = run["summary"]
        learner = run["learner"]
        overall.append(summary["overall_ap"])
        sweep_rows.append([
            "inf" if np.isinf(budget) else f"{budget:g}",
            learner["swaps"],
            f"{summary['overall_ap']:.4f}",
            f"{_post_shift_ap(drift_stream, run['scores']):.4f}",
            f"{learner['staleness']:.0f}",
        ])
    # tighter budget -> more swaps; the inf endpoint never swaps
    swaps = [r[1] for r in sweep_rows]
    assert swaps == sorted(swaps, reverse=True)
    assert swaps[-1] == 0
    # freshness buys quality: the tightest budget beats the frozen endpoint
    assert overall[0] > overall[-1]

    report_table(
        "scenario staleness: budget vs quality (distribution_drift/abrupt, "
        "budget in event-time units of t_max=10000)",
        ["budget", "swaps", "overall AP", "post-shift AP", "final staleness"],
        sweep_rows,
        filename="scenario_staleness.txt",
        clock="simulated",
        footer=[SWAPPED_MODEL],
    )
