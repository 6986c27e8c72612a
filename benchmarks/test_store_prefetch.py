"""Tiered-store prefetch effectiveness: stall time paid vs recovered.

Not a paper table — this bench characterizes the `repro.store` subsystem
the way §5.2.2 characterizes data movement: how much simulated stall
time the training loop spends blocked on feature transfers, and how much
of it the one-batch sampler-lookahead prefetcher hides behind batch
compute.  Three settings over the identical batch stream:

* ``no-prefetch``       — demand gathers only (``prefetch_depth=0``).
* ``prefetch``          — one batch of lookahead, ample hot tier.
* ``prefetch+tiny-hot`` — lookahead under hot-tier pressure (0.05 MiB),
  so rows the hot ring evicts every batch are re-read from the source;
  prefetched rows wait in staging, which nothing else writes.

``compute_seconds_per_row`` is calibrated up from the default (2e-6 ->
2e-5) to model a compute-bound regime where the overlap window is
meaningful; the default transfer-bound regime bounds recovery at the
compute time available, which is the point the table makes.

Expected shape: prefetch recovers a measurable fraction of the
no-prefetch stall (``saved > 0`` and total stall strictly lower), and
every prefetched row is consumed on both prefetch arms.
"""

import numpy as np

from repro.core import TGraph, iter_batches
from repro.store import StoreConfig, TieredFeatureStore
from repro.store.prefetch import BatchPipeline, attach_graph_sources
from repro.store.tiered import TIERS

from conftest import report_table

NUM_NODES = 2000
NUM_EDGES = 20000
DIM = 64
BATCH = 300
#: modeled compute per consumed row (see module docstring).
COMPUTE_PER_ROW = 2.0e-5

ARMS = {
    "no-prefetch": dict(prefetch_depth=0),
    "prefetch": dict(prefetch_depth=1),
    "prefetch+tiny-hot": dict(prefetch_depth=1, hot_mb=0.05),
}


def make_graph(seed=7) -> TGraph:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, size=NUM_EDGES)
    dst = rng.integers(0, NUM_NODES, size=NUM_EDGES)
    ts = np.sort(rng.uniform(0, 1000, size=NUM_EDGES))
    g = TGraph(src, dst, ts, num_nodes=NUM_NODES)
    g.set_nfeat(rng.standard_normal((NUM_NODES, DIM)).astype(np.float32))
    g.set_memory(DIM)
    return g


def _measure(arm: str) -> dict:
    cfg = StoreConfig(compute_seconds_per_row=COMPUTE_PER_ROW, **ARMS[arm])
    store = TieredFeatureStore(cfg)
    g = make_graph()
    attach_graph_sources(store, g)
    pipeline = BatchPipeline(store, g)
    for _ in pipeline.batches(iter_batches(g, BATCH)):
        pass  # the store models the data movement; no training compute here
    c = {**store.counters, **store.gauges()}
    stall, saved = c["store:stall_seconds"], c["store:stall_saved_seconds"]
    tiers = {tier: {key: c[f"store:{tier}:{key}"]
                    for key in ("bytes_in", "bytes_out", "evictions")}
             for tier in TIERS}
    return {
        "stall": stall,
        "saved": saved,
        "recovered": saved / (stall + saved) if stall + saved > 0 else 0.0,
        "issued": c["store:prefetch_issued"],
        "hits": c["store:prefetch_hits"],
        "late": c["store:prefetch_late"],
        "unused": c["store:prefetch_unused"],
        "tiers": tiers,
        "bytes_moved": sum(t["bytes_in"] for t in tiers.values()),
    }


def test_store_prefetch_effectiveness(benchmark):
    def run():
        return {arm: _measure(arm) for arm in ARMS}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [arm,
         f"{r['stall']:.4f}",
         f"{r['saved']:.4f}",
         f"{100 * r['recovered']:.1f}%",
         r["issued"], r["hits"], r["late"]]
        for arm, r in results.items()
    ]
    report_table(
        "Tiered-store prefetch: simulated stall seconds paid vs recovered "
        f"({NUM_EDGES} synthetic edges, dim {DIM})",
        ["setting", "stall (s)", "saved (s)", "recovered", "issued",
         "hits", "late"],
        rows,
        filename="store_prefetch.txt",
    )

    byte_rows = []
    for arm, r in results.items():
        for tier in ("hot", "staging", "cold"):
            t = r["tiers"][tier]
            byte_rows.append([
                arm, tier, t["bytes_in"], t["bytes_out"],
                t["evictions"],
            ])
        byte_rows.append([arm, "total", r["bytes_moved"], "-", "-"])
    report_table(
        "Tiered-store bytes moved per tier (same runs)",
        ["setting", "tier", "bytes in", "bytes out", "evictions"],
        byte_rows,
        filename="store_bytes_moved.txt",
    )

    base = results["no-prefetch"]
    pf = results["prefetch"]
    tiny = results["prefetch+tiny-hot"]
    # No lookahead -> nothing issued, nothing recovered.
    assert base["issued"] == 0 and base["saved"] == 0.0
    assert base["stall"] > 0.0
    # Prefetch recovers measurable stall on the identical stream.
    assert pf["saved"] > 0.0
    assert pf["stall"] < base["stall"]
    assert pf["recovered"] > 0.05
    # Staging holds prefetched rows only, so none is displaced unused,
    # even while the constrained arm's hot ring evicts every batch.
    assert pf["unused"] == 0 and tiny["unused"] == 0
    assert tiny["tiers"]["hot"]["evictions"] > 0
    assert tiny["saved"] > 0.0
