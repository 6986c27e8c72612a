"""Tests for the benchmark harness: metrics, trainer, experiments."""

import numpy as np
import pytest

from repro.bench import (
    average_precision,
    evaluate,
    train,
    train_epoch,
    warm_replay,
)
from repro.bench.experiments import Experiment, ExperimentConfig
from repro.data import NegativeSampler, get_dataset
from repro import nn
import repro.core as tg
from repro.models import TGAT, OptFlags


def brute_force_ap(labels, scores):
    """Reference AP: precision@k averaged at every positive hit."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    labels = np.asarray(labels)[order]
    hits = 0
    total = 0.0
    for k, lab in enumerate(labels, start=1):
        if lab:
            hits += 1
            total += hits / k
    return total / max(labels.sum(), 1)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert average_precision(labels, scores) == pytest.approx(1.0)

    def test_worst_ranking(self):
        labels = np.array([0, 0, 1])
        scores = np.array([0.9, 0.8, 0.1])
        assert average_precision(labels, scores) == pytest.approx(1 / 3)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(5, 60)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            scores = rng.standard_normal(n)
            assert average_precision(labels, scores) == pytest.approx(
                brute_force_ap(labels, scores), abs=1e-9
            )

    def test_ties_are_grouped(self):
        # Two tied scores, one pos one neg: precision at that threshold 0.5.
        labels = np.array([1, 0])
        scores = np.array([0.5, 0.5])
        assert average_precision(labels, scores) == pytest.approx(0.5)

    def test_no_positives(self):
        assert average_precision(np.zeros(3), np.ones(3)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            average_precision(np.ones(2), np.ones(3))


class TestTrainer:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        model = TGAT(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                     num_layers=1, num_nbrs=3, opt=OptFlags.none())
        opt = nn.Adam(model.parameters(), lr=1e-3)
        neg = NegativeSampler.for_dataset(ds)
        return ds, g, model, opt, neg

    def test_train_epoch_returns_time_and_loss(self, setup):
        ds, g, model, opt, neg = setup
        elapsed, loss = train_epoch(model, g, opt, neg, 300, stop=900)
        assert elapsed > 0 and np.isfinite(loss)

    def test_evaluate_returns_ap_in_range(self, setup):
        ds, g, model, opt, neg = setup
        elapsed, ap = evaluate(model, g, neg, 300, start=900, stop=1500)
        assert 0.0 <= ap <= 1.0

    def test_train_runs_requested_epochs(self, setup):
        ds, g, model, opt, neg = setup
        res = train(model, g, opt, neg, batch_size=300, epochs=2,
                    train_end=600, eval_end=900)
        assert len(res.epochs) == 2
        assert res.best_ap >= max(e.eval_ap for e in res.epochs) - 1e-12
        assert all(e.train_seconds > 0 for e in res.epochs)

    def test_warm_replay_restores_memory_state(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        from repro.models import TGN
        g.set_memory(8)
        g.set_mailbox(TGN.required_mailbox_dim(8, 172))
        model = TGN(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                    dim_mem=8, num_layers=1, num_nbrs=3)
        neg = NegativeSampler.for_dataset(ds)
        warm_replay(model, g, neg, 300, stop=600)
        assert np.abs(g.mem.data.data).sum() > 0


class TestExperimentRunner:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Experiment(ExperimentConfig(framework="dgl"))
        with pytest.raises(ValueError):
            Experiment(ExperimentConfig(model="gat"))
        with pytest.raises(ValueError):
            Experiment(ExperimentConfig(placement="tpu"))

    @pytest.mark.parametrize("framework", ["tgl", "tglite", "tglite+opt"])
    def test_builds_and_trains_every_framework(self, framework):
        cfg = ExperimentConfig(
            dataset="wiki", model="jodie", framework=framework,
            placement="gpu", epochs=1, batch_size=400,
            dim_time=8, dim_embed=8, dim_mem=8,
        )
        exp = Experiment(cfg)
        try:
            res = exp.run_training()
            assert len(res.epochs) == 1
            assert res.epochs[0].train_seconds > 0
        finally:
            exp.close()

    def test_inference_path(self):
        cfg = ExperimentConfig(dataset="wiki", model="jodie", framework="tglite",
                               placement="gpu", epochs=1, batch_size=400,
                               dim_time=8, dim_embed=8, dim_mem=8)
        exp = Experiment(cfg)
        try:
            seconds, ap = exp.run_test_inference()
            assert seconds > 0 and 0 <= ap <= 1
        finally:
            exp.close()

    def test_label(self):
        cfg = ExperimentConfig(dataset="wiki", model="tgat", framework="tgl", placement="gpu")
        assert cfg.label() == "tgat/wiki/tgl/gpu"
