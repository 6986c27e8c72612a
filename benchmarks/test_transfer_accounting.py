"""Data-movement accounting: the mechanism behind Figure 6.

Not a table in the paper, but the paper's §5.2.2 analysis attributes the
CPU-to-GPU results to transfer volume and pinned bandwidth.  This bench
measures exactly that: bytes moved per training slice, and what fraction
travelled through the pinned path, for each framework setting.

Expected shape: TGL moves the most bytes (eager per-row MFG loads) and
pins none; TGLite fetches each distinct node / edge row once per block, so
it moves an order of magnitude less, nearly all of it pinned; TGLite+opt
moves no more than that — dedup shrinks the per-row destination gather,
but the set of distinct rows a batch touches is the same with or without
it (the memory models, which read nothing per row, move identical bytes).
JODIE and APAN sample nothing on the embedding path, so TGL's per-row loads
are small to begin with and TGLite's margin is the batch's node repetition
(4-5x), not an order of magnitude.
"""

import pytest

from repro.bench.experiments import Experiment
from repro.bench.trainer import train_epoch
from repro.tensor.device import runtime

from conftest import NO_CLOCK, report_table
from helpers import FRAMEWORK_ORDER, make_config, skip_tglite_opt_for_jodie

MODELS = ("tgat", "tgn", "jodie", "apan")


def _measure(framework: str, model: str) -> dict:
    cfg = make_config("wiki", model, framework, "cpu2gpu")
    exp = Experiment(cfg)
    try:
        runtime.transfer_stats.reset()
        train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler,
                    cfg.batch_size, stop=1500)
        stats = runtime.transfer_stats
        return {
            "mb": stats.bytes / 1e6,
            "pinned_fraction": stats.pinned_bytes / stats.bytes if stats.bytes else 0.0,
            "transfers": stats.count,
        }
    finally:
        exp.close()


def test_transfer_accounting(benchmark):
    cells = [(model, framework) for model in MODELS for framework in FRAMEWORK_ORDER
             if not skip_tglite_opt_for_jodie(model, framework)]

    def run():
        return {cell: _measure(cell[1], cell[0]) for cell in cells}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for model, framework in cells:
        r = results[(model, framework)]
        rows.append([
            model, framework, f"{r['mb']:.1f}",
            f"{100 * r['pinned_fraction']:.0f}%", r["transfers"],
        ])
    report_table(
        "Data movement per training slice (wiki, CPU-to-GPU): the Figure 6 mechanism",
        ["model", "framework", "MB moved", "pinned", "transfers"],
        rows,
        filename="transfer_accounting.txt",
        clock=None,
        footer=[NO_CLOCK],
    )

    for model in MODELS:
        tgl = results[(model, "tgl")]
        lite = results[(model, "tglite")]
        # TGL never pins; TGLite pins the bulk of its traffic.
        assert tgl["pinned_fraction"] == 0.0
        assert lite["pinned_fraction"] > 0.6
        # Per-unique fetches put the sampling models far below TGL, the
        # sampling-free ones (whose TGL rows are small already) below it.
        assert lite["mb"] < tgl["mb"] / (5 if model in ("tgat", "tgn") else 1)
        if (model, "tglite+opt") in results:
            # dedup never adds volume.
            assert results[(model, "tglite+opt")]["mb"] <= lite["mb"]
