"""Table 8: large-scale AP scores — TGLite+opt matches TGL on accuracy."""

import pytest

from repro.models import OptFlags

from conftest import report_table
from helpers import make_config, measure_training_with_ap

MODELS = ("jodie", "apan", "tgat", "tgn")


def test_table8_large_scale_ap(benchmark):
    def run_grid():
        results = {}
        for dataset in ("wikitalk", "gdelt"):
            for model in MODELS:
                for framework in ("tgl", "tglite+opt"):
                    flags = None
                    if framework != "tgl" and model == "jodie":
                        flags = OptFlags.preload_only()
                    cfg = make_config(dataset, model, framework, "cpu2gpu",
                                      batch_size=1000, opt_flags=flags)
                    results[(dataset, model, framework)] = measure_training_with_ap(
                        cfg, epochs=1, slice_edges=2000, eval_edges=1000
                    )["ap"]
        return results

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    rows = []
    for dataset in ("wikitalk", "gdelt"):
        for model in MODELS:
            rows.append([
                dataset, model,
                f"{100 * results[(dataset, model, 'tgl')]:.2f}",
                f"{100 * results[(dataset, model, 'tglite+opt')]:.2f}",
            ])
    report_table(
        "Table 8: large-scale training AP (1 epoch-slice), CPU-to-GPU",
        ["dataset", "model", "TGL", "TGLite+opt"],
        rows,
        filename="table8_large_ap.txt",
        clock="none (AP only)",
    )

    for (dataset, model, fw), ap in results.items():
        assert ap > 0.45, f"AP collapsed for {dataset}/{model}/{fw}"
