"""Predicting optimization payoff from workload statistics.

§5 of the paper explains *why* the optimization operators help: batches of
CTDGs re-request the same (node, time) embeddings, popularity is skewed,
and time deltas repeat.  ``repro.data.analysis`` quantifies those levers.
This example profiles every bundled dataset and then *validates* the
prediction: the dataset with the highest dedup potential should see the
largest measured dedup speedup on TGAT.

Run:  python examples/workload_profiling.py
"""

import time

import numpy as np

from repro import nn
from repro import tensor as T
import repro.core as tg
from repro.bench import train_epoch
from repro.data import NegativeSampler, available_datasets, get_dataset, profile_dataset
from repro.models import TGAT, OptFlags


def measure_dedup_speedup(dataset, stop_edges=1500) -> float:
    """Measured TGAT epoch-slice speedup of dedup over no-dedup."""
    times = {}
    for label, flags in (("plain", OptFlags.none()), ("dedup", OptFlags(dedup=True))):
        T.manual_seed(3)
        g = dataset.build_graph()
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=dataset.nfeat.shape[1],
                     dim_edge=dataset.efeat.shape[1], dim_time=16, dim_embed=16,
                     num_layers=2, num_nbrs=10, opt=flags)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        neg = NegativeSampler.for_dataset(dataset)
        start = dataset.num_edges // 2
        seconds, _ = train_epoch(model, g, opt, neg, 300,
                                 start=start, stop=start + stop_edges)
        times[label] = seconds
    return times["plain"] / times["dedup"]


def main() -> None:
    names = ["wiki", "mooc", "reddit", "lastfm", "wikitalk"]
    print("workload profiles (optimization levers):\n")
    header = f"{'dataset':10s} {'E/V':>6s} {'repeat':>8s} {'gini':>6s} {'dedup pot.':>11s} {'dist. deltas':>13s}"
    print(header)
    print("-" * len(header))
    profiles = {}
    for name in names:
        p = profile_dataset(get_dataset(name), batch_size=300, max_batches=5)
        profiles[name] = p
        print(f"{name:10s} {p.edges_per_node:>6.1f} "
              f"{100 * p.repeat_pair_fraction:>7.1f}% {p.popularity_gini:>6.3f} "
              f"{100 * p.dedup_potential:>10.1f}% "
              f"{100 * p.delta_distinct_fraction:>12.1f}%")

    print("\nvalidating the prediction on TGAT (dedup on vs off):\n")
    candidates = ["wiki", "lastfm", "wikitalk"]
    speedups = {}
    for name in candidates:
        speedups[name] = measure_dedup_speedup(get_dataset(name))
        print(f"  {name:10s} measured dedup speedup: {speedups[name]:.2f}x "
              f"(dedup potential {100 * profiles[name].dedup_potential:.0f}%)")

    ranked_by_potential = sorted(candidates, key=lambda n: -profiles[n].dedup_potential)
    ranked_by_speedup = sorted(candidates, key=lambda n: -speedups[n])
    agree = ranked_by_potential[0] == ranked_by_speedup[0]
    print(f"\nhighest-potential dataset ({ranked_by_potential[0]}) "
          f"{'also shows' if agree else 'does not show'} the largest measured speedup.")


if __name__ == "__main__":
    main()
