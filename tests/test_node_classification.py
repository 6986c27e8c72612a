"""Tests for dynamic labels, ROC-AUC, and the node-classification pipeline."""

import numpy as np
import pytest

import repro.core as tg
from repro import tensor as T
from repro.bench import (
    NodeClassifier,
    collect_source_embeddings,
    roc_auc,
    train_node_classifier,
)
from repro.data import get_dataset
from repro.data import synthetic
from repro.data.synthetic import DATASETS, generate_edges, generate_labels
from repro.models import JODIE, OptFlags


class TestRocAuc:
    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert roc_auc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=4000)
        scores = rng.random(4000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.05

    def test_ties_handled_with_average_ranks(self):
        labels = np.array([1, 0])
        assert roc_auc(labels, np.array([0.5, 0.5])) == 0.5

    def test_degenerate_single_class(self):
        assert roc_auc(np.zeros(5), np.random.default_rng(0).random(5)) == 0.5
        assert roc_auc(np.ones(5), np.random.default_rng(0).random(5)) == 0.5

    def test_matches_brute_force_pair_count(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            labels = rng.integers(0, 2, size=30)
            if labels.sum() in (0, 30):
                labels[0] = 1 - labels[0]
            scores = rng.random(30)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            expected = wins / (len(pos) * len(neg))
            assert roc_auc(labels, scores) == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc(np.ones(2), np.ones(3))


class TestLabelGenerator:
    def test_labels_for_every_edge(self):
        spec = DATASETS["mooc"]
        src, _, ts = generate_edges(spec)
        labels = generate_labels(spec, src, ts)
        assert labels.shape == (spec.num_edges,)
        assert set(np.unique(labels)) <= {0, 1}

    def test_imbalanced_positive_rate(self):
        spec = DATASETS["mooc"]
        src, _, ts = generate_edges(spec)
        labels = generate_labels(spec, src, ts)
        rate = labels.mean()
        assert 0.005 < rate < 0.08  # tail events, well below balance

    def test_positive_rate_parameter(self, monkeypatch):
        spec = DATASETS["mooc"]
        src, _, ts = generate_edges(spec)
        monkeypatch.setattr(synthetic, "POSITIVE_RATE", 0.01)
        low = generate_labels(spec, src, ts).mean()
        monkeypatch.setattr(synthetic, "POSITIVE_RATE", 0.10)
        high = generate_labels(spec, src, ts).mean()
        assert low < high

    def test_deterministic(self):
        spec = DATASETS["wiki"]
        src, _, ts = generate_edges(spec)
        np.testing.assert_array_equal(
            generate_labels(spec, src, ts), generate_labels(spec, src, ts)
        )

    def test_positives_concentrate_on_bursts(self):
        """The planted signal: positive interactions have smaller gaps
        since the user's previous interaction than negatives do."""
        spec = DATASETS["mooc"]
        src, _, ts = generate_edges(spec)
        labels = generate_labels(spec, src, ts)
        last = {}
        gaps = np.full(len(src), np.inf)
        for i in range(len(src)):
            u = int(src[i])
            if u in last:
                gaps[i] = ts[i] - last[u]
            last[u] = ts[i]
        pos_gaps = gaps[(labels == 1) & np.isfinite(gaps)]
        neg_gaps = gaps[(labels == 0) & np.isfinite(gaps)]
        assert np.median(pos_gaps) < np.median(neg_gaps)

    def test_datasets_expose_labels(self):
        ds = get_dataset("mooc")
        assert ds.edge_labels is not None
        assert len(ds.edge_labels) == ds.num_edges


class TestDecoderPipeline:
    def test_classifier_shapes(self):
        clf = NodeClassifier(16)
        out = clf(T.randn(8, 16))
        assert out.shape == (8,)

    def test_decoder_learns_separable_data(self):
        rng = np.random.default_rng(0)
        n = 2000
        labels = (rng.random(n) < 0.1).astype(np.int64)
        embeds = rng.standard_normal((n, 8)).astype(np.float32)
        embeds[labels == 1, 0] += 3.0  # plant a separable direction
        _, auc = train_node_classifier(embeds, labels, epochs=20)
        assert auc > 0.9

    def test_decoder_at_chance_on_noise(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(1500) < 0.1).astype(np.int64)
        embeds = rng.standard_normal((1500, 8)).astype(np.float32)
        _, auc = train_node_classifier(embeds, labels, epochs=10)
        assert 0.3 < auc < 0.7

    def test_collect_source_embeddings(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        g.set_memory(8)
        g.set_mailbox(JODIE.required_mailbox_dim(8, ds.efeat.shape[1]))
        model = JODIE(ctx, dim_node=ds.nfeat.shape[1], dim_edge=ds.efeat.shape[1],
                      dim_time=8, dim_embed=8, dim_mem=8, opt=OptFlags.none())
        embeds, labels = collect_source_embeddings(model, g, ds, batch_size=500)
        assert embeds.shape == (g.num_edges, 8)
        np.testing.assert_array_equal(labels, ds.edge_labels)

    def test_collect_requires_labels(self):
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        g.set_memory(8)
        g.set_mailbox(JODIE.required_mailbox_dim(8, ds.efeat.shape[1]))
        model = JODIE(ctx, dim_node=ds.nfeat.shape[1], dim_edge=ds.efeat.shape[1],
                      dim_time=8, dim_embed=8, dim_mem=8)
        import dataclasses
        unlabeled = dataclasses.replace(ds, edge_labels=None)
        with pytest.raises(ValueError):
            collect_source_embeddings(model, g, unlabeled, batch_size=500)
