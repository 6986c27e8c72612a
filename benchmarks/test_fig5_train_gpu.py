"""Figure 5: training time per epoch-slice, all-on-GPU case.

Paper shape to reproduce: TGLite (preload-only) on par with TGL; TGLite+opt
1.06-1.81x faster, with the biggest wins for TGAT/TGN on repeat-heavy
datasets; JODIE's TGLite+opt setting is skipped (same as TGLite).
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


def test_fig5_training_all_on_gpu(benchmark):
    def run_grid():
        results = {}
        for dataset in STANDARD_DATASETS:
            for model in MODEL_ORDER:
                for framework in FRAMEWORK_ORDER:
                    if skip_tglite_opt_for_jodie(model, framework):
                        continue
                    cfg = make_config(dataset, model, framework, "gpu")
                    results[(dataset, model, framework)] = measure_training(cfg)["seconds"]
        return results

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    rows = []
    for dataset in STANDARD_DATASETS:
        for model in MODEL_ORDER:
            tgl = results[(dataset, model, "tgl")]
            lite = results[(dataset, model, "tglite")]
            opt = results.get((dataset, model, "tglite+opt"))
            rows.append([
                dataset, model, f"{tgl:.2f}",
                f"{lite:.2f} ({speedup(tgl, lite)})",
                f"{opt:.2f} ({speedup(tgl, opt)})" if opt is not None else "= tglite",
            ])
    report_table(
        "Figure 5: training time per epoch-slice (seconds), all-on-GPU",
        ["dataset", "model", "TGL", "TGLite", "TGLite+opt"],
        rows,
        filename="fig5_train_gpu.txt",
        clock=TRANSFER_CLOCK,
    )

    # Shape assertions (not absolute numbers): optimization operators must
    # win for the sampling-heavy models on every dataset.
    for dataset in STANDARD_DATASETS:
        for model in ("tgat", "tgn"):
            assert results[(dataset, model, "tglite+opt")] < results[(dataset, model, "tgl")], (
                f"TGLite+opt should beat TGL for {model}/{dataset}"
            )
