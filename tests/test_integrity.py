"""Tests for `repro.integrity`: digests, anti-entropy scrubbing, repair.

Covers the digest primitives (canonical encoding, chunked maintained
digests, merkle rollup/descent), the cluster scrub lifecycle — a single
injected bit flip in any tier (memory, mailbox, WAL) is detected
within one scrub cycle and repaired back to bit-identical state — the
arbitration regimes (peer/quorum at factor >= 2, WAL-suffix resync at
factor 1), the ``scrub.skip`` suspect window with read-repair, the
zero-false-positive guarantee on clean chaos runs, and the
:class:`IntegrityUnrepairable` refusal paths when every repair source is
degraded.
"""

import os
from unittest import mock

import numpy as np
import pytest

import repro.cluster.replica as replica_module
from repro.cluster import ClusterConfig, ServeCluster
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.integrity import (
    ChunkedDigest,
    IntegrityUnrepairable,
    array_digest,
    canonical_bytes,
    merkle_diff,
    merkle_root,
)
from repro.resilience import FaultInjector, apply_bitflip
from repro.serve import ServeRuntime, apply_plan, build_stream, replay, split_batches

N = 60
DIM = 8


def _stream(events=400, seed=1):
    return build_stream(N, events, payload_dim=DIM, seed=seed)


def _cluster(stream, factor=1, injector=None, **cfg_kw):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    ctx = TContext(g)
    config = ClusterConfig(
        num_shards=4, replication_factor=factor, **cfg_kw
    )
    cluster = ServeCluster(
        g, ctx, TSampler(10, seed=3), DIM, config=config,
        injector=injector, stream=stream, deadline=1.0, max_queue=1 << 30,
    )
    return ctx, cluster


def _single_digests(stream, batches, load=16.0):
    """(memory, mailbox) digests of a clean single-runtime replay."""
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    ctx = TContext(g)
    mem = Memory(N, DIM)
    mailbox = Mailbox(N, DIM)
    runtime = ServeRuntime(g, ctx, mem, TSampler(10, seed=3),
                           mailbox=mailbox, deadline=1.0, max_queue=1 << 30)
    replay(runtime, batches, load=load)
    return mem.state_digest(), mailbox.state_digest()


def _cluster_digests(cluster):
    """(memory, mailbox) digests of the assembled cluster images."""
    data, times = cluster.memory_image()
    mail, mtime, cursor = cluster.mailbox_image()
    mail_d = (array_digest(mail, mtime) if cursor is None
              else array_digest(mail, mtime, cursor))
    return array_digest(data, times), mail_d


# ---------------------------------------------------------------------------
# Digest primitives
# ---------------------------------------------------------------------------

class TestDigestPrimitives:
    def test_canonical_bytes_pins_dtype_and_shape(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert canonical_bytes(a) == canonical_bytes(a.copy())
        # same bytes, different shape / dtype must not collide
        assert canonical_bytes(a) != canonical_bytes(a.reshape(3, 2))
        assert canonical_bytes(a) != canonical_bytes(a.view(np.int32))
        # non-contiguous views hash as their logical content
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert canonical_bytes(b[:, ::2]) == canonical_bytes(
            np.ascontiguousarray(b[:, ::2]))

    def test_array_digest_detects_single_bit_flip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(16, DIM)).astype(np.float32)
        times = rng.uniform(size=16)
        before = array_digest(data, times)
        flat = data.view(np.uint8).reshape(-1)
        flat[137] ^= np.uint8(1 << 5)
        assert array_digest(data, times) != before
        flat[137] ^= np.uint8(1 << 5)
        assert array_digest(data, times) == before
        # argument order matters (memory vs mailbox can't alias)
        assert array_digest(data, times) != array_digest(times, data)

    def test_merkle_root_and_diff_localize(self):
        leaves = [array_digest(np.array([i])) for i in range(9)]
        assert merkle_root(leaves) == merkle_root(list(leaves))
        assert merkle_diff(leaves, list(leaves)) == []
        changed = list(leaves)
        changed[3] = array_digest(np.array([99]))
        changed[7] = array_digest(np.array([98]))
        assert merkle_diff(leaves, changed) == [3, 7]
        assert merkle_root(changed) != merkle_root(leaves)
        # empty and length-mismatched summaries degrade safely
        assert merkle_diff([], []) == []
        assert merkle_root([]) == merkle_root([])
        assert merkle_diff(leaves, leaves[:4]) == [0, 1, 2, 3]

    def test_chunked_digest_incremental_matches_recompute(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(70, DIM)).astype(np.float32)
        times = rng.uniform(size=70)
        cd = ChunkedDigest(lambda: (data, times), 70, chunk_rows=16)
        assert cd.num_chunks == 5
        for _ in range(5):
            rows = rng.integers(0, 70, size=8)
            data[rows] = rng.normal(size=(8, DIM)).astype(np.float32)
            times[rows] = rng.uniform(size=8)
            cd.record_rows(rows)
        # O(written-rows) maintenance equals a from-scratch rehash
        assert cd.digests == cd.compute()
        assert cd.diverged() == []
        assert cd.root() == merkle_root(cd.compute())

    def test_chunked_digest_is_tamper_evident(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(64, DIM)).astype(np.float32)
        cd = ChunkedDigest(lambda: (data,), 64, chunk_rows=16)
        # out-of-band mutation (no record_rows) localizes to its chunk
        data.view(np.uint8).reshape(-1)[40 * DIM * 4] ^= np.uint8(1)
        assert cd.diverged() == [2]
        # a legitimate write through record_rows re-adopts the state
        cd.record_rows(np.array([40]))
        assert cd.diverged() == []


# ---------------------------------------------------------------------------
# Scrub lifecycle: detect -> localize -> arbitrate -> repair -> verify
# ---------------------------------------------------------------------------

def _flip_and_drain(cluster, tier, factor):
    """Flip one bit of shard 1's last member after the final write."""
    group = cluster.groups[1]
    member = factor - 1
    assert apply_bitflip(group.members[member], ("flip", tier, 12345, 3))
    cluster.drain()  # terminal anti-entropy pass runs scrub_now()
    return group, member


@pytest.mark.parametrize("tier", ["memory", "mailbox"])
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_flip_detected_and_repaired_bit_identical(tier, factor):
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=factor)
    with cluster:
        replay(cluster, batches, load=16.0)
        group, member = _flip_and_drain(cluster, tier, factor)
        stats = cluster.stats()
        # detected within one cycle and repaired in place
        assert stats["integrity:divergences"] >= 1
        assert stats["integrity:rows_repaired"] >= 1
        if factor == 1:
            # no peer: the member's own durable evidence repairs it
            assert stats["integrity:wal_resyncs"] >= 1
        else:
            assert stats["integrity:peer_repairs"] >= 1
        if factor >= 3:
            assert stats["integrity:quorum_repairs"] >= 1
        # repaired member agrees with its peers, bit for bit
        for rep in group.members:
            for comp, cd in rep.digests.components():
                assert cd.diverged() == []
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches)


@pytest.mark.parametrize("factor", [1, 2])
def test_wal_flip_reanchors_log_on_verified_state(factor):
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=factor)
    with cluster:
        replay(cluster, batches, load=16.0)
        group, member = _flip_and_drain(cluster, "wal", factor)
        stats = cluster.stats()
        assert stats["integrity:divergences"] >= 1
        assert stats["integrity:wal_segment_repairs"] >= 1
        assert stats["integrity:wal_segments_dropped"] >= 1
        rep = group.members[member]
        # the log parses clean again and still arbitrates recovery
        assert rep.verify_wal() == []
        assert rep.shadow_state() is not None
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches)


def _serve(cluster, batches):
    for batch in batches:
        cluster.submit(batch)
        cluster.step()


@pytest.mark.parametrize("tier", ["memory", "mailbox"])
@pytest.mark.parametrize("factor", [1, 3])
def test_a_bit_flipped_during_apply_is_caught_by_the_next_scrub(tier, factor):
    """A member's write lands one wrong bit in a row it just wrote.  The
    maintained leaves come from the logged plan, not a read-back of the
    row, so the next scrub sees the flip: at factor 1 it repairs from the
    member's own WAL, at factor 3 from a quorum of peers."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=factor)
    victim = cluster.groups[1].members[factor - 1]
    flipped = []

    def apply_then_flip(plan, memory, mailbox=None):
        apply_plan(plan, memory, mailbox)
        if memory is victim.memory and len(plan.win_nodes) and not flipped:
            table = victim.tables(tier)[0]
            table[plan.win_nodes[0]].view(np.uint8)[0] ^= np.uint8(1)
            flipped.append(int(plan.win_nodes[0]))

    with cluster:
        _serve(cluster, batches[:5])
        with mock.patch.object(replica_module, "apply_plan", apply_then_flip):
            _serve(cluster, batches[5:6])
        assert flipped
        cluster.drain()  # terminal anti-entropy pass runs scrub_now()
        stats = cluster.stats()
        assert stats["integrity:divergences"] >= 1
        if factor == 1:
            assert stats["integrity:wal_resyncs"] >= 1
        else:
            assert stats["integrity:peer_repairs"] >= 1
            assert stats["integrity:quorum_repairs"] >= 1
        for rep in cluster.groups[1].members:
            for comp, cd in rep.digests.components():
                assert cd.diverged() == []
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches[:6])


def test_records_logged_after_a_reanchor_and_crash_stay_recoverable():
    """Factor 1: a scrub re-anchors a flipped WAL (rotate, snapshot, compact
    every record away), the member crashes and respawns; what it logs next
    must stay visible to recovery, or repairing a later memory flip from
    its own durable evidence falls short and raises."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=1)
    with cluster:
        _serve(cluster, batches[:5])
        rep = cluster.groups[1].members[0]
        assert apply_bitflip(rep, ("flip", "wal", 12345, 3))
        cluster.scrubber.scrub_now()
        rep.crash()
        _serve(cluster, batches[5:8])
        cluster.drain()
        assert apply_bitflip(rep, ("flip", "memory", 777, 1))
        cluster.drain()
        assert cluster.stats()["integrity:wal_resyncs"] >= 1
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches[:8])


def test_member_whose_log_lost_acked_records_resyncs_from_a_peer():
    """Factor 2: flip the primary's WAL and crash it before a scrub, serve a
    batch, kill the follower, drain.  The primary's log reopens cut at the
    flip, short of what it acked; it must take the follower's state rather
    than win primary-authority arbitration over it."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=2)
    with cluster:
        _serve(cluster, batches[:5])
        primary, follower = cluster.groups[1].members
        assert apply_bitflip(primary, ("flip", "wal", 12345, 3))
        primary.crash()
        _serve(cluster, batches[5:6])
        follower.crash()
        cluster.drain()
        digests = _cluster_digests(cluster)
        authority_repairs = cluster.stats()["integrity:authority_repairs"]
    assert digests == _single_digests(stream, batches[:6])
    assert authority_repairs == 0


def test_scheduled_mem_flip_via_fault_site():
    """The ``mem.flip`` chaos site injects a deterministic silent flip
    that the next scrub detects and repairs to bit-identical state."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    inj = FaultInjector(seed=5, schedules={"mem.flip": [(1, 0, 1)]},
                        mem_flip_tier="memory")
    ctx, cluster = _cluster(stream, factor=2, injector=inj)
    with cluster, inj:
        replay(cluster, batches, load=16.0)
        # fire the scheduled flip after the last write so no later
        # legitimate overwrite can heal it before the scrubber looks
        inj.advance(1, 0)
        cluster._before_request()
        cluster.drain()
        stats = cluster.stats()
        assert stats["cluster:injected_flips"] == 1
        assert stats["integrity:divergences"] >= 1
        assert stats["integrity:rows_repaired"] >= 1
        assert any(e.site == "mem.flip" for e in inj.log)
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches)


def test_scrub_skip_counts_cycles_and_stays_clean():
    stream = _stream(400)
    batches = split_batches(stream, 40)
    inj = FaultInjector(seed=3, schedules={"scrub.skip": [(0, 0)]})  # (0, cycle)
    # interval far below the simulated replay span so periodic cycles
    # actually come due (the default 0.25 s outlives this short stream)
    ctx, cluster = _cluster(stream, factor=1, injector=inj,
                            scrub_interval=1e-3)
    with cluster, inj:
        replay(cluster, batches, load=16.0)
        cluster.drain()
        stats = cluster.stats()
        assert stats["integrity:skipped_cycles"] >= 1
        assert stats["integrity:cycles"] >= 1
        # a completed cycle closed the suspect window again
        assert not cluster.scrubber.suspect_window
        # skipping detection on a clean run must not invent divergence
        assert stats["integrity:divergences"] == 0
        assert any(e.site == "scrub.skip" for e in inj.log)
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches)


def test_guard_read_repairs_touched_chunks_in_suspect_window():
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=1)
    with cluster:
        replay(cluster, batches, load=16.0)
        group = cluster.groups[1]
        rep = group.members[0]
        assert apply_bitflip(rep, ("flip", "memory", 999, 2))
        scrubber = cluster.scrubber
        # outside a suspect window reads trust the periodic scrubber
        scrubber.guard_read(1, group, 0, rep.owned)
        assert scrubber.counters["integrity:read_repairs"] == 0
        # inside one (a skipped cycle) the read verifies its rows first
        scrubber.suspect_window = True
        scrubber.guard_read(1, group, 0, rep.owned)
        assert scrubber.counters["integrity:read_repairs"] == 1
        assert scrubber.counters["integrity:divergences"] >= 1
        for comp, cd in rep.digests.components():
            assert cd.diverged() == []
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches)


def test_clean_chaos_run_has_zero_false_positives():
    """Crashes, promotions, and lossy RPC are not corruption: the
    scrubber must stay silent across a full chaos schedule."""
    stream = _stream(600)
    batches = split_batches(stream, 40)
    inj = FaultInjector(
        seed=7,
        rates={"heartbeat.drop": 0.02, "rpc.send.drop": 0.05},
        schedules={"shard.crash": {(0, 5, 1)}},  # shard 1's primary
    )
    ctx, cluster = _cluster(stream, factor=2, injector=inj)
    with cluster, inj:
        results = replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        digests = _cluster_digests(cluster)
    assert stats["cluster:injected_crashes"] >= 1
    assert all(r.status == "ok" for r in results)
    assert stats["integrity:cycles"] >= 1
    assert stats["integrity:chunks_scrubbed"] > 0
    assert stats["integrity:divergences"] == 0
    assert stats["integrity:rows_repaired"] == 0
    assert digests == _single_digests(stream, batches)


def test_member_integrity_summaries_agree_after_clean_replay():
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=2)
    with cluster:
        replay(cluster, batches, load=16.0)
        for group in cluster.groups:
            roots = [{name: cd.root() for name, cd in m.digests.components()}
                     for m in group.members]
            for other in roots[1:]:
                assert other["memory"] == roots[0]["memory"]
                assert other["mailbox"] == roots[0]["mailbox"]


def test_unrepairable_when_no_peer_and_evidence_damaged():
    """Corrupt primary, crashed follower, damaged WAL evidence: the
    scrubber must refuse (raise) rather than silently serve bad rows."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _cluster(stream, factor=2)
    with cluster:
        replay(cluster, batches, load=16.0)
        group = cluster.groups[1]
        group.members[1].crash()  # the only possible donor
        rep = group.members[0]
        assert apply_bitflip(rep, ("flip", "memory", 777, 1))
        # damage the durable evidence: break the newest WAL record so a
        # shadow replay falls short of the applied sequence
        path = max(rep.store.wal.segment_paths(), key=os.path.getsize)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) - 8)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert rep.shadow_state() is None
        with pytest.raises(IntegrityUnrepairable) as err:
            cluster.scrubber.scrub_now()
        assert err.value.component == "memory"
        assert err.value.shard == 1 and err.value.member == 0
