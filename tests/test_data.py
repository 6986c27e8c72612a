"""Tests for synthetic datasets, splits, and negative sampling."""

import numpy as np
import pytest

from repro.data import (
    DATASETS,
    NegativeSampler,
    available_datasets,
    generate_edges,
    generate_features,
    get_dataset,
)


class TestGenerators:
    def test_registry_has_all_paper_datasets(self):
        assert set(available_datasets()) == {
            "wiki", "mooc", "reddit", "lastfm", "wikitalk", "gdelt",
        }

    def test_counts_match_spec(self):
        for name, spec in DATASETS.items():
            src, dst, ts = generate_edges(spec)
            assert len(src) == spec.num_edges, name
            assert max(src.max(), dst.max()) < spec.num_nodes, name

    def test_timestamps_sorted_and_span(self):
        spec = DATASETS["wiki"]
        _, _, ts = generate_edges(spec)
        assert np.all(np.diff(ts) >= 0)
        assert abs(ts[-1] - spec.t_max) < 1e-6
        assert ts[0] > 0

    def test_deterministic_per_seed(self):
        spec = DATASETS["mooc"]
        a = generate_edges(spec)
        b = generate_edges(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_bipartite_partition_respected(self):
        for name in ("wiki", "mooc", "reddit", "lastfm"):
            spec = DATASETS[name]
            src, dst, _ = generate_edges(spec)
            num_users = int(round(spec.num_nodes * spec.user_fraction))
            assert src.max() < num_users, name
            assert dst.min() >= num_users, name

    def test_non_bipartite_no_self_loops(self):
        spec = DATASETS["wikitalk"]
        src, dst, _ = generate_edges(spec)
        assert np.all(src != dst)

    def test_repeat_interactions_present(self):
        # The repeat-or-explore process must produce revisits (pairs seen
        # more than once), which drive the dedup/cache benefits.
        spec = DATASETS["lastfm"]
        src, dst, _ = generate_edges(spec)
        pairs = src.astype(np.int64) * spec.num_nodes + dst
        _, counts = np.unique(pairs, return_counts=True)
        assert (counts > 1).mean() > 0.3

    def test_popularity_skew(self):
        spec = DATASETS["wiki"]
        _, dst, _ = generate_edges(spec)
        _, counts = np.unique(dst, return_counts=True)
        # Power-law-ish: the top item should dominate the median.
        assert counts.max() > 10 * np.median(counts)

    def test_feature_shapes_and_determinism(self):
        spec = DATASETS["wiki"]
        n1, e1 = generate_features(spec)
        n2, e2 = generate_features(spec)
        assert n1.shape == (spec.num_nodes, spec.dim_node)
        assert e1.shape == (spec.num_edges, spec.dim_edge)
        np.testing.assert_array_equal(n1, n2)
        np.testing.assert_array_equal(e1, e2)
        assert n1.dtype == np.float32


class TestDataset:
    def test_get_dataset_cached(self):
        assert get_dataset("wiki") is get_dataset("wiki")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_dataset("nope")

    def test_splits_chronological_70_15_15(self):
        ds = get_dataset("wiki")
        tr, va, te = ds.splits()
        assert tr == int(ds.num_edges * 0.70)
        assert va == int(ds.num_edges * 0.85)
        assert te == ds.num_edges
        assert np.all(ds.ts[:tr].max() <= ds.ts[tr:va].min())

    def test_stats_row(self):
        row = get_dataset("mooc").stats()
        assert row["dataset"] == "mooc"
        assert row["|E|"] == row["paper |E|"] // row["edge scale"] or row["|E|"] > 0
        assert set(row) >= {"|V|", "|E|", "d_v", "d_e", "max(t)"}

    def test_build_graph_places_features(self):
        ds = get_dataset("wiki")
        g = ds.build_graph(feature_device="cuda")
        assert g.nfeat.device.is_cuda and g.efeat.device.is_cuda
        g = ds.build_graph()
        assert g.nfeat.device.is_cpu

    def test_bipartite_partition_accessor(self):
        ds = get_dataset("wiki")
        users, items = ds.bipartite_partition()
        assert users[-1] + 1 == items[0]
        assert len(users) + len(items) == ds.num_nodes
        assert get_dataset("wikitalk").bipartite_partition() is None

    def test_all_datasets_buildable(self):
        for name in available_datasets():
            ds = get_dataset(name)
            g = ds.build_graph()
            assert g.num_edges == ds.num_edges
            assert g.csr().num_nodes == ds.num_nodes


class TestNegativeSampler:
    def test_samples_from_candidates(self):
        sampler = NegativeSampler(np.array([7, 8, 9]), seed=1)
        out = sampler.sample(100)
        assert set(np.unique(out)) <= {7, 8, 9}

    def test_deterministic_stream_and_reset(self):
        s = NegativeSampler(np.arange(10), seed=3)
        a = s.sample(5)
        s.reset()
        b = s.sample(5)
        np.testing.assert_array_equal(a, b)

    def test_for_dataset_bipartite_uses_items(self):
        ds = get_dataset("wiki")
        sampler = NegativeSampler.for_dataset(ds)
        _, items = ds.bipartite_partition()
        out = sampler.sample(200)
        assert out.min() >= items[0]

    def test_for_dataset_general_uses_all_nodes(self):
        ds = get_dataset("wikitalk")
        sampler = NegativeSampler.for_dataset(ds)
        assert len(sampler.candidates) == ds.num_nodes

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            NegativeSampler(np.array([]))

    @pytest.mark.parametrize("name", ["wiki", "wikitalk"])  # bipartite, full
    def test_draws_are_uniform_over_candidates(self, name):
        """Chi-square over the candidate counts: df = len - 1 has mean df
        and sd sqrt(2 df); the statistic stays within 5 sd of the mean."""
        sampler = NegativeSampler.for_dataset(get_dataset(name))
        cands = sampler.candidates
        expected = 200.0
        draws = sampler.sample(int(expected * len(cands)))
        counts = np.bincount(np.searchsorted(cands, draws), minlength=len(cands))
        stat = ((counts - expected) ** 2 / expected).sum()
        df = len(cands) - 1
        assert abs(stat - df) < 5 * np.sqrt(2 * df), (stat, df)

    def test_reset_at_draws_the_same_positions_in_pieces(self):
        s = NegativeSampler(np.arange(1000), seed=5)
        s.reset(300)
        whole = s.sample(90)
        s.reset(300)
        pieces = [s.sample(k) for k in (10, 0, 45, 35)]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)
        s.reset(355)
        np.testing.assert_array_equal(s.sample(35), whole[55:])
        s.reset()
        np.testing.assert_array_equal(s.sample(390)[300:], whole)
