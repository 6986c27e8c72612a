"""Table 5: test-set inference times and AP, all-on-GPU case.

Paper shape: TGLite roughly on par with TGL (0.85-1.61x), TGLite+opt
1.09-1.54x faster, with cache() giving TGAT a larger edge than TGN (whose
memory updates invalidate cached embeddings, so it skips cache()).
"""

import pytest

from conftest import report_table
from helpers import (
    FRAMEWORK_ORDER,
    MODEL_ORDER,
    STANDARD_DATASETS,
    TRANSFER_CLOCK,
    make_config,
    measure_inference,
    skip_tglite_opt_for_jodie,
    speedup,
)

DATASETS = STANDARD_DATASETS


def test_table5_inference_all_on_gpu(benchmark):
    def run_grid():
        results = {}
        for dataset in DATASETS:
            for model in MODEL_ORDER:
                for framework in FRAMEWORK_ORDER:
                    if skip_tglite_opt_for_jodie(model, framework):
                        continue
                    cfg = make_config(dataset, model, framework, "gpu")
                    results[(dataset, model, framework)] = measure_inference(cfg)
        return results

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    rows = []
    for dataset in DATASETS:
        for model in MODEL_ORDER:
            tgl = results[(dataset, model, "tgl")]
            lite = results[(dataset, model, "tglite")]
            opt = results.get((dataset, model, "tglite+opt"))
            rows.append([
                dataset, model,
                f"{tgl['seconds']:.2f}", f"{100 * tgl['ap']:.2f}",
                f"{lite['seconds']:.2f} ({speedup(tgl['seconds'], lite['seconds'])})",
                f"{100 * lite['ap']:.2f}",
                f"{opt['seconds']:.2f} ({speedup(tgl['seconds'], opt['seconds'])})" if opt else "-",
                f"{100 * opt['ap']:.2f}" if opt else "-",
            ])
    report_table(
        "Table 5: test inference time (s) and AP, all-on-GPU",
        ["dataset", "model", "TGL", "AP", "TGLite", "AP", "TGLite+opt", "AP"],
        rows,
        filename="table5_inference.txt",
        clock=TRANSFER_CLOCK,
    )

    # Shape assertions: the fully optimized setting must beat TGL for the
    # attention-sampling models, where dedup/cache/time-precompute apply.
    for dataset in DATASETS:
        for model in ("tgat", "tgn"):
            assert (
                results[(dataset, model, "tglite+opt")]["seconds"]
                < results[(dataset, model, "tgl")]["seconds"]
            )
