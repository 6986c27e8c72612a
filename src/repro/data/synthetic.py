"""Synthetic CTDG generators matching the shape of the paper's benchmarks.

The original evaluation uses Wiki/MOOC/Reddit/LastFM (JODIE), WikiTalk
(SNAP), and GDELT (TGL's preparation), none of which can be downloaded in
this offline environment.  These generators produce seeded graphs that
preserve the statistics the paper's speedups depend on:

* **bipartiteness** (all four standard sets are user-item graphs),
* **power-law popularity and activity** (hub items are re-sampled often,
  which drives dedup/cache hit rates),
* **repeat interactions** (users returning to prior items — LastFM's
  defining trait and the reason its optimizations pay off most),
* **edges-per-node density and timestamp span**, scaled down so a numpy
  substrate finishes epochs in seconds (scale factors recorded per
  dataset in :data:`DATASETS` and reported in Table 3's bench).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "GeneratorSpec",
    "DATASETS",
    "derive_rng",
    "generate_edges",
    "generate_features",
    "generate_labels",
]


def derive_rng(seed: int, *path) -> np.random.Generator:
    """One independent :class:`numpy.random.Generator` per ``(seed, path)``.

    The path components (strings or ints) are folded into a
    :class:`numpy.random.SeedSequence` entropy list, so ``derive_rng(7,
    "scenario", "drift", "edges")`` and ``derive_rng(7, "scenario",
    "drift", "labels")`` are decorrelated streams derived from the same
    user-facing seed — no module-level or global RNG state involved.
    Both the synthetic datasets and :mod:`repro.scenarios` generators
    draw their streams through this one derivation scheme, so composing
    them under a shared seed never causes crosstalk.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part) & 0xFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(part).encode("utf-8")) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic dataset.

    Attributes mirror Table 3's columns plus generation knobs.
    """

    name: str
    num_nodes: int
    num_edges: int
    dim_node: int
    dim_edge: int
    t_max: float
    bipartite: bool
    #: fraction of "source" nodes in a bipartite graph (users).
    user_fraction: float = 0.85
    #: probability a user repeats a previously-visited partner.
    repeat_prob: float = 0.6
    #: Zipf-ish exponent for partner popularity.
    popularity_exp: float = 1.1
    seed: int = 17
    #: paper-scale counts, for Table 3 reporting.
    paper_nodes: int = 0
    paper_edges: int = 0
    #: node features randomly generated (paper's * marker).
    random_nfeat: bool = True
    #: edge features randomly generated (paper's dagger marker).
    random_efeat: bool = True


#: Registry of dataset recipes.  Node/edge counts are the paper's divided
#: by the scale factors documented in DESIGN.md (~20x nodes, ~50x edges for
#: the standard sets; ~200x / ~2000x for the large-scale sets).
DATASETS: Dict[str, GeneratorSpec] = {
    "wiki": GeneratorSpec(
        name="wiki", num_nodes=461, num_edges=3149, dim_node=172, dim_edge=172,
        t_max=2.7e6, bipartite=True, repeat_prob=0.55,
        paper_nodes=9227, paper_edges=157474, random_efeat=False,
    ),
    "mooc": GeneratorSpec(
        name="mooc", num_nodes=357, num_edges=8234, dim_node=128, dim_edge=128,
        t_max=2.6e6, bipartite=True, user_fraction=0.93, repeat_prob=0.7,
        paper_nodes=7144, paper_edges=411749,
    ),
    "reddit": GeneratorSpec(
        name="reddit", num_nodes=549, num_edges=13448, dim_node=172, dim_edge=172,
        t_max=2.7e6, bipartite=True, user_fraction=0.91, repeat_prob=0.65,
        paper_nodes=10984, paper_edges=672447, random_efeat=False,
    ),
    "lastfm": GeneratorSpec(
        name="lastfm", num_nodes=99, num_edges=25862, dim_node=128, dim_edge=128,
        t_max=1.4e8, bipartite=True, user_fraction=0.5, repeat_prob=0.8,
        paper_nodes=1980, paper_edges=1293103,
    ),
    "wikitalk": GeneratorSpec(
        name="wikitalk", num_nodes=5700, num_edges=39165, dim_node=128, dim_edge=128,
        t_max=1.2e9, bipartite=False, repeat_prob=0.5, popularity_exp=1.3,
        paper_nodes=1140149, paper_edges=7833140,
    ),
    "gdelt": GeneratorSpec(
        name="gdelt", num_nodes=1042, num_edges=95645, dim_node=413, dim_edge=186,
        t_max=1.8e5, bipartite=False, repeat_prob=0.75, popularity_exp=1.2,
        paper_nodes=16682, paper_edges=191290882,
        random_nfeat=False, random_efeat=False,
    ),
}


#: Zipf-ish exponent for user activity.
ACTIVITY_EXP = 1.0
#: the shortest share of inter-interaction gaps that can be labelled positive
POSITIVE_RATE = 0.05
#: the probability a gap in that tail keeps its positive label
NOISE_KEEP = 0.8


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def generate_edges(spec: GeneratorSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate ``(src, dst, ts)`` arrays for *spec* (deterministic per seed).

    Edge endpoints follow a repeat-or-explore process: each event picks an
    active user; with probability ``repeat_prob`` the user revisits one of
    its recent partners (recency-biased), otherwise it samples a partner by
    global popularity.  Timestamps are a Poisson arrival process rescaled
    to ``[0, t_max]``.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_nodes
    if spec.bipartite:
        num_users = max(1, int(round(n * spec.user_fraction)))
        num_items = max(1, n - num_users)
        users = np.arange(num_users)
        items = np.arange(num_users, num_users + num_items)
    else:
        users = np.arange(n)
        items = users

    activity = _zipf_weights(len(users), ACTIVITY_EXP)
    popularity = _zipf_weights(len(items), spec.popularity_exp)

    m = spec.num_edges
    src = rng.choice(users, size=m, p=activity)
    dst = items[rng.choice(len(items), size=m, p=popularity)]

    # Repeat interactions: replace a fraction of picks with a revisit of
    # the same user's most recent distinct partners.
    history: Dict[int, list] = {}
    repeat_draws = rng.random(m)
    pick_draws = rng.random(m)
    for i in range(m):
        u = int(src[i])
        hist = history.get(u)
        if hist and repeat_draws[i] < spec.repeat_prob:
            # Recency bias: geometric over the last few partners.
            idx = min(int(-np.log(max(pick_draws[i], 1e-12)) * 1.5), len(hist) - 1)
            dst[i] = hist[-1 - idx]
        else:
            if hist is None:
                hist = []
                history[u] = hist
            hist.append(int(dst[i]))
            if len(hist) > 32:
                del hist[0]
        if not spec.bipartite and dst[i] == u:
            dst[i] = items[(int(dst[i]) + 1) % len(items)]

    gaps = rng.exponential(scale=1.0, size=m)
    ts = np.cumsum(gaps)
    ts = ts / ts[-1] * spec.t_max
    return src.astype(np.int64), dst.astype(np.int64), ts.astype(np.float64)


def generate_labels(
    spec: GeneratorSpec,
    src: np.ndarray,
    ts: np.ndarray,
) -> np.ndarray:
    """Dynamic per-interaction source-node labels (state-change events).

    The JODIE datasets carry rare dynamic labels (Wikipedia user banned,
    MOOC student dropout) used for the node-classification task.  This
    generator plants a *temporal* signal: an interaction is positive when
    the source user's gap since its previous interaction falls in the
    shortest :data:`POSITIVE_RATE` tail of all gaps (activity bursts are known
    precursors of bans/dropouts), kept with probability :data:`NOISE_KEEP`.

    Because bursts concentrate on high-activity users in a scaled-down
    graph, static node identity also correlates with these labels — a
    shortcut real datasets do not offer to the same degree; see
    ``examples/dropout_prediction_nodeclass.py`` for the honest framing.
    """
    rng = np.random.default_rng(spec.seed + 2)
    m = len(src)
    last_seen: dict = {}
    gaps = np.full(m, np.inf)
    for i in range(m):
        u = int(src[i])
        prev = last_seen.get(u)
        if prev is not None:
            gaps[i] = ts[i] - prev
        last_seen[u] = ts[i]
    finite = np.isfinite(gaps)
    if not finite.any():
        return np.zeros(m, dtype=np.int64)
    cutoff = np.quantile(gaps[finite], POSITIVE_RATE)
    labels = (finite & (gaps <= cutoff) & (rng.random(m) < NOISE_KEEP)).astype(np.int64)
    return labels


def generate_features(spec: GeneratorSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``(node_features, edge_features)`` for *spec*.

    The paper marks most features as randomly generated anyway; for the
    datasets with real features (Wiki/Reddit edge text vectors, GDELT
    embeddings) we substitute seeded Gaussians of the same width, which
    preserves all compute/transfer behaviour (documented in DESIGN.md).
    """
    rng = np.random.default_rng(spec.seed + 1)
    nfeat = rng.standard_normal((spec.num_nodes, spec.dim_node)).astype(np.float32)
    efeat = rng.standard_normal((spec.num_edges, spec.dim_edge)).astype(np.float32)
    return nfeat, efeat
