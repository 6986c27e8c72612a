"""Figure 7: per-operation breakdown of a TGAT training epoch (LastFM).

Paper shape: TGL has no separate time-delta step (fused into sampling);
attention dominates the TGLite settings; TGLite+opt pays a little extra
for the precomputed-time operators but shrinks everything downstream of
dedup (sampling, data loading, attention, backward).

Each column is one ``train_epoch`` over the first 4,000 edges run under
:func:`repro.spans.record`: the stages are the spans the training step,
the models and the attention layer mark, each net of the stage spans
nested inside it (``rec.seconds``).  Kernel rows are inclusive span
seconds, nested inside the stages, so they are listed after the total.
"""

import pytest

from repro.bench.experiments import Experiment
from repro.bench.trainer import train_epoch
from repro.spans import record

from conftest import report_table
from helpers import make_config

STAGES = [
    "batch_prep", "sample", "data_load", "time_zero", "time_nbrs",
    "attention", "pred_loss", "backward", "opt_step",
]
FRAMEWORKS = ("tgl", "tglite", "tglite+opt")
SLICE_EDGES = 4000


def recorded_epoch(framework):
    """``(train_epoch seconds, recording)`` of one epoch-slice."""
    exp = Experiment(make_config("lastfm", "tgat", framework, "gpu"))
    try:
        with record() as rec:
            seconds, _ = train_epoch(
                exp.model, exp.g, exp.optimizer, exp.neg_sampler, exp.cfg.batch_size,
                stop=min(exp.train_end, SLICE_EDGES),
            )
    finally:
        exp.close()
    return seconds, rec


def test_fig7_tgat_lastfm_breakdown(benchmark):
    runs = benchmark.pedantic(
        lambda: {fw: recorded_epoch(fw) for fw in FRAMEWORKS}, rounds=1, iterations=1)
    results = {fw: rec.seconds(STAGES) for fw, (_, rec) in runs.items()}
    kernels = {fw: {k: v for k, v in rec.totals().items() if k.startswith("kernel:")}
               for fw, (_, rec) in runs.items()}

    rows = [[stage, *(f"{results[fw].get(stage, 0.0):.3f}" for fw in FRAMEWORKS)]
            for stage in STAGES]
    rows.append(["total", *(f"{sum(results[fw].values()):.3f}" for fw in FRAMEWORKS)])
    rows.append(["train_epoch", *(f"{runs[fw][0]:.3f}" for fw in FRAMEWORKS)])
    for name in sorted({k for fw in FRAMEWORKS for k in kernels[fw]}):
        rows.append([name, *(f"{kernels[fw].get(name, 0.0):.3f}" for fw in FRAMEWORKS)])
    report_table(
        "Figure 7: TGAT epoch-slice breakdown (seconds), LastFM, all-on-GPU",
        ["stage", "TGL", "TGLite", "TGLite+opt"],
        rows,
        filename="fig7_breakdown.txt",
        clock="wall",
    )

    # The stages tile the training step: they account for the epoch.
    for fw in FRAMEWORKS:
        assert sum(results[fw].values()) == pytest.approx(runs[fw][0], rel=0.05), fw

    # Shape assertions reproducing §5.2.3's observations.
    # 1. TGL has no separate neighbor-delta time step (fused into sample).
    assert "time_nbrs" not in results["tgl"]
    # 2. TGLite pays a separate time-encoding step.
    assert results["tglite"]["time_nbrs"] > 0
    # 3. Attention is a dominant stage for plain TGLite (it outweighs the
    #    sampling and data-loading stages).
    assert results["tglite"]["attention"] > results["tglite"]["sample"]
    assert results["tglite"]["attention"] > results["tglite"]["data_load"]
    # 4. dedup shrinks the attention stage.
    assert results["tglite+opt"]["attention"] < results["tglite"]["attention"]
