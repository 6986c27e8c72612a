"""Figure 6: training time per epoch-slice, CPU-to-GPU case.

Paper shape: data movement dominates — TGL roughly 3-4x its all-on-GPU
time; TGLite beats TGL via pinned-memory preload (1.29-1.62x in the paper);
TGLite+opt wins the most (1.41-3.43x).

Each cell's seconds are the slice's wall time plus the simulated transfer
seconds it tallied (``helpers.measure_training``); the ``xfer (sim)``
columns show the simulated part on its own.
"""

import pytest

from conftest import report_table
from helpers import (
    FRAMEWORK_ORDER,
    MODEL_ORDER,
    STANDARD_DATASETS,
    TRANSFER_CLOCK,
    make_config,
    measure_training,
    skip_tglite_opt_for_jodie,
    speedup,
)

#: smaller slice than Figure 5: the simulated transfer cost makes each
#: batch substantially more expensive, as in the real experiment.
SLICE = 2400


def test_fig6_training_cpu_to_gpu(benchmark):
    def run_grid():
        results = {}
        for dataset in STANDARD_DATASETS:
            for model in MODEL_ORDER:
                for framework in FRAMEWORK_ORDER:
                    if skip_tglite_opt_for_jodie(model, framework):
                        continue
                    cfg = make_config(dataset, model, framework, "cpu2gpu")
                    results[(dataset, model, framework)] = measure_training(
                        cfg, slice_edges=SLICE
                    )
        return results

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    rows = []
    for dataset in STANDARD_DATASETS:
        for model in MODEL_ORDER:
            tgl = results[(dataset, model, "tgl")]
            lite = results[(dataset, model, "tglite")]
            opt = results.get((dataset, model, "tglite+opt"))
            rows.append([
                dataset, model,
                f"{tgl['seconds']:.2f}", f"{tgl['transfer_s']:.2f}",
                f"{lite['seconds']:.2f} ({speedup(tgl['seconds'], lite['seconds'])})",
                f"{lite['transfer_s']:.2f}",
                f"{opt['seconds']:.2f} ({speedup(tgl['seconds'], opt['seconds'])})"
                if opt is not None else "= tglite",
                f"{opt['transfer_s']:.2f}" if opt is not None else "",
            ])
    report_table(
        "Figure 6: training time per epoch-slice (seconds, wall + simulated transfer), "
        "CPU-to-GPU",
        ["dataset", "model", "TGL", "xfer (sim)", "TGLite", "xfer (sim)",
         "TGLite+opt", "xfer (sim)"],
        rows,
        filename="fig6_train_cpu2gpu.txt",
        clock=TRANSFER_CLOCK,
    )

    # Shape assertions: pinned preload alone must already beat TGL when
    # transfers dominate, for every model and dataset.
    for dataset in STANDARD_DATASETS:
        for model in MODEL_ORDER:
            assert (results[(dataset, model, "tglite")]["seconds"]
                    < results[(dataset, model, "tgl")]["seconds"]), (
                f"TGLite (preload) should beat TGL in CPU-to-GPU for {model}/{dataset}"
            )
