"""Autograd nodes per training step on the benchmark's TGAT and TGN configs.

Attention, ``Linear``, ``LayerNorm`` and ``TimeEncode`` are one tape node
each, and attention encodes its neighbours' time deltas inside its own node
(a time part).  Re-composing one of them out of elementwise ops multiplies its
nodes, which shows up here by name instead of as a slower benchmark.
"""

from dataclasses import replace

import pytest

from repro.bench import trainer
from repro.bench.experiments import Experiment, ExperimentConfig
from repro.data import DATASETS
from repro.tensor import Tensor

#: ``perf/workloads.py`` ``HYPER``: the benchmark's offline hyper-parameters.
HYPER = dict(batch_size=300, num_layers=2, num_nbrs=10, num_heads=2, dim_time=32,
             dim_embed=32, dim_mem=32, sampling="recent", epochs=1)
#: the benchmark's ``reddit`` analog, shrunk: the tape's shape does not depend on size.
TINY = replace(DATASETS["reddit"], name="tape-size-reddit", num_nodes=80, num_edges=900)


def _tape_nodes(loss: Tensor) -> int:
    """Non-leaf tensors (the ones with a backward) reachable from *loss*."""
    seen, stack, nodes = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._backward is not None
            stack.extend(p for p in t._prev if p.requires_grad)
    return nodes


@pytest.mark.parametrize("model, framework, limit", [("tgat", "tglite+opt", 60),
                                                     ("tgn", "tglite", 85)])
def test_nodes_per_training_step(monkeypatch, model, framework, limit):
    monkeypatch.setitem(DATASETS, TINY.name, TINY)
    exp = Experiment(ExperimentConfig(dataset=TINY.name, model=model, framework=framework,
                                      placement="gpu", seed=0, **HYPER))
    counts, backward = [], Tensor.backward

    def counting(self, grad=None):
        counts.append(_tape_nodes(self))
        return backward(self, grad)

    monkeypatch.setattr(Tensor, "backward", counting)
    trainer.train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler, HYPER["batch_size"],
                        start=300, stop=900)
    assert len(counts) == 2
    assert max(counts) <= limit, f"{model} {framework}: {counts} tape nodes per step > {limit}"
