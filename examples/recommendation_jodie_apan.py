"""Time-aware recommendation: JODIE vs APAN on a listening stream.

Another motivating application from the paper's introduction: time-aware
recommendation.  The LastFM-like dataset is a dense user-artist listening
stream with heavy repeat behaviour.  Two memory-based models suit two
different serving constraints:

* JODIE — cheapest: no sampling at all, embeddings are time-projections of
  RNN memory; and
* APAN — attention over each user's mailbox, with mail pushed to
  neighbors *after* serving (asynchronous propagation), keeping the
  request path sampling-free.

This example trains both, compares epoch cost and ranking quality, and
then produces concrete top-k recommendations for the most active users.

Run:  python examples/recommendation_jodie_apan.py
"""

import numpy as np

from repro import nn
from repro import tensor as T
import repro.core as tg
from repro.bench import evaluate, train_epoch
from repro.data import NegativeSampler, get_dataset
from repro.models import APAN, JODIE, OptFlags


def build(name, dataset):
    graph = dataset.build_graph(feature_device="cuda")
    ctx = tg.TContext(graph, device="cuda")
    dim_mem = 32
    common = dict(
        dim_node=dataset.nfeat.shape[1],
        dim_edge=dataset.efeat.shape[1],
        dim_time=32,
        dim_embed=32,
        dim_mem=dim_mem,
    )
    if name == "jodie":
        graph.set_memory(dim_mem, device="cuda")
        graph.set_mailbox(
            JODIE.required_mailbox_dim(dim_mem, dataset.efeat.shape[1]), device="cuda"
        )
        model = JODIE(ctx, opt=OptFlags.preload_only(), **common)
    else:
        graph.set_memory(dim_mem, device="cuda")
        graph.set_mailbox(
            APAN.required_mailbox_dim(dim_mem, dataset.efeat.shape[1]),
            slots=10, device="cuda",
        )
        model = APAN(ctx, num_nbrs=10, mailbox_slots=10, opt=OptFlags.all(), **common)
    return graph, model.to("cuda")


def top_k_recommendations(model, graph, dataset, user, at_time, k=5):
    """Rank all items for one user at a given time via the edge predictor."""
    _, items = dataset.bipartite_partition()
    n = len(items)
    model.eval()
    with T.no_grad():
        nodes = np.concatenate([[user], items])
        blk = tg.TBlock(model.ctx, 0, nodes, np.full(len(nodes), at_time))
        embeds = model.embed(blk)  # JODIE and APAN both embed a block's (node, time) rows
        user_embed = embeds[np.zeros(n, dtype=np.int64)]
        scores = model.edge_predictor(user_embed, embeds[np.arange(1, n + 1)])
    order = np.argsort(-scores.numpy())
    return items[order[:k]], scores.numpy()[order[:k]]


def main() -> None:
    T.manual_seed(3)
    dataset = get_dataset("lastfm")
    train_end, val_end, test_end = dataset.splits()
    negatives = NegativeSampler.for_dataset(dataset)

    results = {}
    models = {}
    for name in ("jodie", "apan"):
        graph, model = build(name, dataset)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        model.reset_state()
        seconds, loss = train_epoch(
            model, graph, optimizer, negatives, batch_size=300, stop=train_end
        )
        _, ap = evaluate(model, graph, negatives, batch_size=300,
                         start=train_end, stop=val_end)
        results[name] = (seconds, ap)
        models[name] = (graph, model)
        print(f"{name.upper():5s}  epoch {seconds:6.2f}s   ranking AP {ap:.4f}")

    # Concrete recommendations from the APAN model for the busiest user.
    graph, model = models["apan"]
    users, _ = dataset.bipartite_partition()
    counts = np.bincount(dataset.src, minlength=dataset.num_nodes)[users]
    busiest = users[np.argmax(counts)]
    items, scores = top_k_recommendations(model, graph, dataset, busiest, dataset.ts[-1])
    print(f"\ntop-5 artists for user {busiest} (listened {counts.max()} times):")
    for rank, (item, score) in enumerate(zip(items, scores), start=1):
        print(f"  {rank}. artist {item}  (score {score:+.3f})")

    faster = min(results, key=lambda k: results[k][0])
    print(f"\ncheapest epoch: {faster.upper()} "
          f"({results[faster][0]:.2f}s vs {results[max(results, key=lambda k: results[k][0])][0]:.2f}s)")


if __name__ == "__main__":
    main()
