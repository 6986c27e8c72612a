"""Additional trainer-harness edge cases."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro.bench import TrainResult, evaluate, train, train_epoch, warm_replay
from repro.bench.trainer import EpochResult
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, OptFlags


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
