"""§5.4 ablation: TBlock vs MFG.

The paper swaps TBlocks for MFG-style standalone blocks inside TGLite and
measures a ~3-9% training slowdown plus ~200 lines of extra user-level
code (re-implemented multi-hop plumbing, eager all-on-device data).  Here
the MFG-style path is the TGL TGAT pipeline running the *same* math with
standalone blocks, eager loading, and manual inter-layer bookkeeping; the
TBlock path is plain TGLite (no optimization operators other than preload,
isolating the abstraction difference).  Seconds are wall + simulated
transfer (``helpers.measure_training``); the ``xfer (sim)`` columns show
the simulated part on its own (zero all-on-GPU).
"""

import pytest

from repro.models import OptFlags

from conftest import report_table
from helpers import TRANSFER_CLOCK, make_config, measure_training


def test_ablation_tblock_vs_mfg(benchmark):
    def run():
        results = {}
        for placement in ("gpu", "cpu2gpu"):
            tb = make_config("wiki", "tgat", "tglite", placement,
                             opt_flags=OptFlags.preload_only())
            results[(placement, "tblock")] = measure_training(tb, slice_edges=2200)
            mfg = make_config("wiki", "tgat", "tgl", placement)
            results[(placement, "mfg")] = measure_training(mfg, slice_edges=2200)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for placement, label in (("gpu", "all-on-GPU"), ("cpu2gpu", "CPU-to-GPU")):
        tb = results[(placement, "tblock")]
        mfg = results[(placement, "mfg")]
        rows.append([
            label, f"{tb['seconds']:.2f}", f"{tb['transfer_s']:.2f}",
            f"{mfg['seconds']:.2f}", f"{mfg['transfer_s']:.2f}",
            f"{(mfg['seconds'] / tb['seconds'] - 1) * 100:.1f}%",
        ])
    report_table(
        "Ablation (5.4): TBlock vs MFG-style blocks, TGAT/wiki training",
        ["case", "TBlock (s)", "xfer (sim)", "MFG-style (s)", "xfer (sim)", "MFG slowdown"],
        rows,
        filename="ablation_tblock_vs_mfg.txt",
        clock=TRANSFER_CLOCK,
    )

    # The MFG-style pipeline must not be faster than the TBlock pipeline
    # in the data-movement-bound case (eager loads, no pinning).
    assert results[("cpu2gpu", "mfg")]["seconds"] > results[("cpu2gpu", "tblock")]["seconds"]
