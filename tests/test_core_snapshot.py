"""Tests for the discrete-time snapshot extension (paper §7 future work)."""

import numpy as np
import pytest

import repro.core as tg
from repro.core.snapshot import SnapshotLoader, TSnapshot, snapshots


@pytest.fixture
def line_graph():
    # 12 edges at times 1..12 over 6 nodes.
    src = np.arange(12) % 6
    dst = (np.arange(12) + 1) % 6
    ts = np.arange(1.0, 13.0)
    return tg.TGraph(src, dst, ts, num_nodes=6)


class TestSnapshots:
    def test_even_partition_covers_all_edges(self, line_graph):
        snaps = snapshots(line_graph, num_snapshots=4)
        assert len(snaps) == 4
        assert sum(s.num_edges for s in snaps) == 12
        assert snaps[0].start_eid == 0
        assert snaps[-1].stop_eid == 12

    def test_windows_are_contiguous(self, line_graph):
        snaps = snapshots(line_graph, num_snapshots=3)
        for a, b in zip(snaps[:-1], snaps[1:]):
            assert a.stop_eid == b.start_eid
            assert a.t_end == b.t_start

    def test_edges_fall_inside_windows(self, line_graph):
        for snap in snapshots(line_graph, num_snapshots=5):
            _, _, ts = snap.edges()
            if len(ts):
                assert ts.min() >= snap.t_start
                assert ts.max() < snap.t_end

    def test_boundary_validation(self, line_graph):
        with pytest.raises(ValueError):
            snapshots(line_graph, num_snapshots=0)

    def test_nodes(self, line_graph):
        snap = snapshots(line_graph, num_snapshots=4)[0]
        assert len(snap.nodes()) > 0

    def test_batch_view(self, line_graph):
        snap = snapshots(line_graph, num_snapshots=4)[1]
        batch = snap.batch()
        np.testing.assert_array_equal(batch.eids, np.arange(snap.start_eid, snap.stop_eid))
        assert batch.g is line_graph

    def test_block_seeds_at_window_end(self, line_graph):
        ctx = tg.TContext(line_graph)
        snap = snapshots(line_graph, num_snapshots=3)[1]
        blk = snap.block(ctx)
        assert np.all(blk.dsttimes == snap.t_end)
        # Existing CTDG operators compose: temporal sampling respects the
        # snapshot horizon.
        tg.TSampler(4, "recent").sample(blk)
        assert np.all(blk.etimes < snap.t_end)

    def test_block_with_explicit_nodes(self, line_graph):
        ctx = tg.TContext(line_graph)
        snap = snapshots(line_graph, num_snapshots=2)[0]
        blk = snap.block(ctx, nodes=np.array([0, 1]))
        assert blk.num_dst == 2

    def test_repr(self, line_graph):
        assert "TSnapshot" in repr(snapshots(line_graph, num_snapshots=2)[0])


class TestSnapshotLoader:
    def test_yields_history_target_pairs(self, line_graph):
        loader = SnapshotLoader(line_graph, num_snapshots=4)
        pairs = list(loader)
        assert len(pairs) == len(loader) == 3
        for history, target in pairs:
            assert isinstance(history, TSnapshot)
            np.testing.assert_array_equal(
                target.eids, np.arange(history.stop_eid, history.stop_eid + len(target)))

    def test_targets_cover_everything_after_first_window(self, line_graph):
        loader = SnapshotLoader(line_graph, num_snapshots=3)
        covered = sum(len(t) for _, t in loader)
        first = loader.snapshots[0].num_edges
        assert covered == line_graph.num_edges - first
