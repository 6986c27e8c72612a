"""Tests for the workload-profiling analytics."""

import numpy as np
import pytest

import repro.core as tg
from repro.data import batch_duplication_ratio, get_dataset, profile_dataset
from repro.data.analysis import _gini


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini(np.full(10, 5)) == pytest.approx(0.0, abs=1e-9)

    def test_extreme_concentration_near_one(self):
        counts = np.zeros(1000)
        counts[0] = 1e6
        assert _gini(counts) > 0.99

    def test_empty_and_zero(self):
        assert _gini(np.array([])) == 0.0
        assert _gini(np.zeros(5)) == 0.0

    def test_monotone_in_skew(self):
        mild = _gini(np.array([1, 2, 3, 4], dtype=float))
        harsh = _gini(np.array([1, 1, 1, 100], dtype=float))
        assert harsh > mild > 0


class TestDuplicationRatio:
    def test_star_graph_high_duplication(self):
        # Every edge touches node 0 at identical batch times -> 2-hop
        # frontiers are massively duplicated.
        m = 400
        src = np.zeros(m, dtype=np.int64)
        dst = 1 + (np.arange(m) % 5)
        ts = np.arange(1.0, m + 1.0)
        g = tg.TGraph(src, dst, ts, num_nodes=6)
        ratio = batch_duplication_ratio(g, batch_size=50, num_nbrs=5, max_batches=3)
        assert ratio > 0.4

    def test_ratio_in_unit_interval(self):
        ds = get_dataset("wiki")
        ratio = batch_duplication_ratio(ds.build_graph(), 200, max_batches=3)
        assert 0.0 <= ratio <= 1.0


class TestProfileDataset:
    def test_profile_fields(self):
        profile = profile_dataset(get_dataset("wiki"), batch_size=200, max_batches=3)
        assert profile.num_edges == 3149
        assert 0 <= profile.repeat_pair_fraction <= 1
        assert 0 <= profile.popularity_gini <= 1
        assert 0 <= profile.dedup_potential <= 1
        assert 0 < profile.delta_distinct_fraction <= 1
        assert profile.median_gap > 0
        assert profile.p99_gap >= profile.median_gap

    def test_lastfm_more_redundant_than_wikitalk(self):
        """The repeat-heavy dense graph must profile as more optimizable —
        the property behind the paper's per-dataset speedup ordering."""
        lastfm = profile_dataset(get_dataset("lastfm"), batch_size=200, max_batches=3)
        wikitalk = profile_dataset(get_dataset("wikitalk"), batch_size=200, max_batches=3)
        assert lastfm.dedup_potential > wikitalk.dedup_potential
        assert lastfm.edges_per_node > wikitalk.edges_per_node
