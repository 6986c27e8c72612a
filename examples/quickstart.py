"""Quickstart: train TGAT on the Wiki-like dataset with TGLite.

Walks through the full public API path a new user takes:

1. load a continuous-time temporal graph dataset;
2. build a ``TGraph`` and a ``TContext``;
3. instantiate a TGNN model with optimization operators enabled;
4. train with chronological batches + negative sampling;
5. evaluate average precision on the held-out chronological splits.

Run:  python examples/quickstart.py
"""

from repro import nn
from repro import tensor as T
import repro.core as tg
from repro.core.stats import ratios
from repro.bench import evaluate, train_epoch
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, OptFlags
from repro.spans import record


def main() -> None:
    T.manual_seed(2024)

    # 1. Load a dataset (a seeded synthetic analog of JODIE's Wiki graph).
    dataset = get_dataset("wiki")
    print(f"dataset: {dataset.name}  |V|={dataset.num_nodes}  |E|={dataset.num_edges}")

    # 2. Build the temporal graph and runtime context.  Features stay on
    #    the (simulated) host; computation happens on the device.
    graph = dataset.build_graph(feature_device="cpu")
    ctx = tg.TContext(graph, device="cuda")

    # 3. A 2-layer TGAT sampling 10 most-recent neighbors per hop, with
    #    all semantic-preserving optimization operators switched on.
    model = TGAT(
        ctx,
        dim_node=dataset.nfeat.shape[1],
        dim_edge=dataset.efeat.shape[1],
        dim_time=32,
        dim_embed=32,
        num_layers=2,
        num_nbrs=10,
        opt=OptFlags.all(),
    ).to("cuda")
    optimizer = nn.Adam(model.parameters(), lr=1e-3)

    # 4. Chronological 70/15/15 split and training loop.
    train_end, val_end, test_end = dataset.splits()
    negatives = NegativeSampler.for_dataset(dataset)

    for epoch in range(3):
        model.reset_state()
        seconds, loss = train_epoch(
            model, graph, optimizer, negatives, batch_size=300, stop=train_end
        )
        _, val_ap = evaluate(
            model, graph, negatives, batch_size=300, start=train_end, stop=val_end
        )
        print(f"epoch {epoch}: {seconds:5.2f}s  loss={loss:.4f}  val AP={val_ap:.4f}")

    # 5. Final test-set evaluation (the cache() operator is live here —
    #    ctx switches to inference mode via model.eval()), recording the
    #    spans the kernels mark.
    with record() as rec:
        test_seconds, test_ap = evaluate(
            model, graph, negatives, batch_size=300, start=val_end, stop=test_end
        )
    derived = {name: round(value, 3) for name, value in ratios(ctx.stats().counters).items()}
    print(f"test: {test_seconds:.2f}s  AP={test_ap:.4f}  {derived}")
    kernel_ms = {name[len("kernel:"):]: round(sec * 1e3, 1)
                 for name, sec in rec.totals().items() if name.startswith("kernel:")}
    print(f"test kernel time (ms): {kernel_ms}")


if __name__ == "__main__":
    main()
