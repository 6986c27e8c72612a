"""Data-movement accounting: the mechanism behind Figure 6.

Not a table in the paper, but the paper's §5.2.2 analysis attributes the
CPU-to-GPU results to transfer volume and pinned bandwidth.  This bench
measures exactly that: bytes moved per training slice, and what fraction
travelled through the pinned path, for each framework setting.  The cost
model is disabled so the numbers are pure accounting.

Expected shape: TGL moves the most bytes (eager per-row MFG loads) and
pins none; TGLite fetches each distinct node / edge row once per block, so
it moves an order of magnitude less, nearly all of it pinned; TGLite+opt
moves no more than that — dedup shrinks the per-row destination gather,
but the set of distinct rows a batch touches is the same with or without
it (TGN, which reads nothing per row, moves identical bytes).
"""

import pytest

from repro.bench.experiments import Experiment
from repro.bench.trainer import train_epoch
from repro.tensor.device import runtime

from conftest import report_table
from helpers import make_config


def _measure(framework: str, model: str) -> dict:
    cfg = make_config("wiki", model, framework, "cpu2gpu")
    exp = Experiment(cfg)
    try:
        runtime.simulate_transfer_cost = False  # accounting only
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
    def run():
        results = {}
        for model in ("tgat", "tgn"):
            for framework in ("tgl", "tglite", "tglite+opt"):
                results[(model, framework)] = _measure(framework, model)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for model in ("tgat", "tgn"):
        for framework in ("tgl", "tglite", "tglite+opt"):
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
    )

    for model in ("tgat", "tgn"):
        tgl = results[(model, "tgl")]
        lite = results[(model, "tglite")]
        opt = results[(model, "tglite+opt")]
        # TGL never pins; TGLite pins the bulk of its traffic.
        assert tgl["pinned_fraction"] == 0.0
        assert lite["pinned_fraction"] > 0.6
        # dedup never adds volume; per-unique fetches put both far below TGL.
        assert opt["mb"] <= lite["mb"] < tgl["mb"] / 5
