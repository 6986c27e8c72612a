"""Additional trainer-harness edge cases."""

import gc
import hashlib
import weakref

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro.bench import TrainResult, evaluate, train, train_epoch, warm_replay
from repro.bench.experiments import Experiment, ExperimentConfig
from repro.bench.trainer import EpochResult, train_step
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, TGN, OptFlags


@pytest.fixture(scope="module")
def setup():
    ds = get_dataset("wiki")
    g = ds.build_graph()
    ctx = tg.TContext(g)
    model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                 num_layers=1, num_nbrs=3, opt=OptFlags.none())
    opt = nn.Adam(model.parameters(), lr=1e-3)
    neg = NegativeSampler.for_dataset(ds)
    return ds, g, model, opt, neg


class TestTrainResult:
    def test_empty_result_defaults(self):
        result = TrainResult()
        assert result.best_ap == 0.0

    def test_best_ap_is_max(self):
        result = TrainResult(epochs=[
            EpochResult(0, 1.0, 0.5, 0.1, 0.7),
            EpochResult(1, 1.0, 0.4, 0.1, 0.9),
            EpochResult(2, 1.0, 0.3, 0.1, 0.8),
        ])
        assert result.best_ap == 0.9


class TestEdgeRanges:
    def test_evaluate_empty_range(self, setup):
        ds, g, model, opt, neg = setup
        seconds, ap = evaluate(model, g, neg, 300, start=500, stop=500)
        assert ap == 0.0
        assert seconds >= 0.0

    def test_train_epoch_empty_range(self, setup):
        ds, g, model, opt, neg = setup
        seconds, loss = train_epoch(model, g, opt, neg, 300, start=100, stop=100)
        assert loss == 0.0

    def test_train_without_eval(self, setup):
        ds, g, model, opt, neg = setup
        result = train(model, g, opt, neg, batch_size=300, epochs=1, train_end=600)
        assert result.epochs[0].eval_ap == 0.0
        assert result.epochs[0].train_seconds > 0

    def test_warm_replay_on_stateless_model(self, setup):
        ds, g, model, opt, neg = setup
        warm_replay(model, g, neg, 300, stop=600)  # no-op state, must not raise
        assert model.training is False  # left in eval mode

    def test_negative_stream_identical_across_frameworks(self, setup):
        """The comparability guarantee: evaluate() resets the negative
        stream, so two models are scored on identical negatives."""
        ds, g, model, opt, neg = setup
        neg.reset()
        first = [neg.sample(5).copy() for _ in range(3)]
        neg.reset()
        second = [neg.sample(5).copy() for _ in range(3)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", ["tgat", "tgn"])
def test_a_step_frees_its_blocks_without_the_cycle_collector(name, monkeypatch):
    """A block holds its predecessor weakly, so the chain is no reference
    cycle: the step's head block is gone as soon as train_step returns."""
    ds = get_dataset("wiki")
    g = ds.build_graph()
    ctx = tg.TContext(g)
    dims = dict(dim_node=172, dim_edge=172, dim_time=8, dim_embed=8, num_layers=2,
                num_nbrs=3, opt=OptFlags.all())
    if name == "tgat":
        model = TGAT(ctx, **dims)
    else:
        g.set_memory(8)
        g.set_mailbox(TGN.required_mailbox_dim(8, 172))
        model = TGN(ctx, dim_mem=8, **dims)
    opt = nn.Adam(model.parameters(), lr=1e-3)
    heads = []
    block = tg.TBatch.block

    def recording_block(self, *args, **kwargs):
        head = block(self, *args, **kwargs)
        heads.append(weakref.ref(head))
        return head

    monkeypatch.setattr(tg.TBatch, "block", recording_block)
    model.train()
    gc.collect()
    gc.disable()
    try:
        train_step(model, tg.TBatch.range(g, 300, 600), opt, NegativeSampler.for_dataset(ds))
        assert heads and all(ref() is None for ref in heads)
    finally:
        gc.enable()


#: (model, framework) -> (hex bits of the loss of one train step on edges
#: [600, 800), sha256 prefix of the scores of one eval batch on [800, 1000)).
STEP_AND_EVAL_PINS = {
    ("jodie", "tgl"): ("0x1.65a52e0000000p+0", "f9aa06ea2ce1f76f"),
    ("jodie", "tglite"): ("0x1.63f2680000000p+0", "78c13cbfa779118c"),
    ("jodie", "tglite+opt"): ("0x1.63f2680000000p+0", "78c13cbfa779118c"),
    ("apan", "tgl"): ("0x1.64d8fa0000000p+0", "074949cb8b40bfbb"),
    ("apan", "tglite"): ("0x1.6226940000000p+0", "e7f6311d860ef3ac"),
    ("apan", "tglite+opt"): ("0x1.6226940000000p+0", "e7f6311d860ef3ac"),
    ("tgat", "tgl"): ("0x1.6a657c0000000p+0", "63cc0a321160d36a"),
    ("tgat", "tglite"): ("0x1.6fabd40000000p+0", "1480d3c342a0a941"),
    ("tgat", "tglite+opt"): ("0x1.6f62780000000p+0", "28809610e7c59728"),
    ("tgn", "tgl"): ("0x1.6825640000000p+0", "be3314dc45cae46f"),
    ("tgn", "tglite"): ("0x1.6288e40000000p+0", "6a0cc7e8fae41b54"),
    ("tgn", "tglite+opt"): ("0x1.63cdc20000000p+0", "834d5e5b9987863e"),
}


@pytest.mark.parametrize("model,framework", sorted(STEP_AND_EVAL_PINS))
def test_one_train_step_and_one_eval_batch_are_pinned(model, framework):
    """Every model x framework cell of the bench grid, on a wiki slice:
    one train step's loss and one eval batch's scores are pinned to the
    bit, so a refactor of the batch, block or model path that moves any
    training output shows here."""
    exp = Experiment(ExperimentConfig(model=model, framework=framework, batch_size=200))
    try:
        exp.model.train()
        batch, = tg.iter_batches(exp.g, 200, start=600, stop=800)
        loss = train_step(exp.model, batch, exp.optimizer, exp.neg_sampler)
        scores = []
        forward = exp.model.forward

        def capture(b):
            pos, neg = forward(b)
            scores.append(pos.data.tobytes() + neg.data.tobytes())
            return pos, neg

        exp.model.forward = capture
        evaluate(exp.model, exp.g, exp.neg_sampler, 200, start=800, stop=1000)
    finally:
        exp.close()
    digest = hashlib.sha256(b"".join(scores)).hexdigest()[:16]
    assert (float(loss).hex(), digest) == STEP_AND_EVAL_PINS[model, framework]
