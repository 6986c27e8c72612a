"""Table 6: single-optimization ablation, TGAT on LastFM inference.

Paper: enabling one optimization at a time over plain TGLite, reporting
inference speedup vs TGL for the CPU-to-GPU and all-on-GPU cases.  Shape:
each optimization individually improves on plain TGLite, with dedup and
cache contributing the most.

Speedups compare seconds = wall + simulated transfer
(``helpers.measure_inference``); the ``xfer (sim)`` row shows each
setting's simulated CPU-to-GPU part on its own.
"""

import pytest

from repro.models import OptFlags

from conftest import report_table
from helpers import TRANSFER_CLOCK, make_config, measure_inference, speedup

SETTINGS = [
    ("TGLite", OptFlags.preload_only()),
    ("+dedup", OptFlags(preload=True, dedup=True)),
    ("+cache", OptFlags(preload=True, cache=True)),
    ("+time", OptFlags(preload=True, time_precompute=True)),
]


def test_table6_single_optimization_ablation(benchmark):
    def run_grid():
        results = {}
        for placement in ("cpu2gpu", "gpu"):
            cfg = make_config("lastfm", "tgat", "tgl", placement)
            results[(placement, "TGL")] = measure_inference(cfg)
            for label, flags in SETTINGS:
                cfg = make_config("lastfm", "tgat", "tglite", placement, opt_flags=flags)
                results[(placement, label)] = measure_inference(cfg)
        return results

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    labels = ["TGL", *(label for label, _ in SETTINGS)]
    rows = []
    for placement, title in (("cpu2gpu", "CPU-to-GPU"), ("gpu", "all-on-GPU")):
        tgl = results[(placement, "TGL")]["seconds"]
        rows.append([
            title,
            *(speedup(tgl, results[(placement, label)]["seconds"]) for label in labels),
        ])
    rows.append(["CPU-to-GPU xfer (sim)",
                 *(f"{results[('cpu2gpu', label)]['transfer_s']:.2f}s" for label in labels)])
    report_table(
        "Table 6: inference speedup vs TGL (TGAT/LastFM), one optimization at a time",
        ["case", *labels],
        rows,
        filename="table6_opt_ablation.txt",
        clock=TRANSFER_CLOCK,
    )

    # Shape assertions: each optimization alone must improve over plain
    # TGLite in the transfer-bound case.
    for label in ("+dedup", "+cache"):
        assert results[("cpu2gpu", label)]["seconds"] < results[("cpu2gpu", "TGLite")]["seconds"]
