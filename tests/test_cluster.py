"""Tests for the sharded serving cluster (`repro.cluster`).

Covers both partitioning policies (determinism, stability between
rebalance boundaries, balance bounds — property-based via hypothesis),
the simulated RPC layer (retry/backoff, hedged sends, drop sites), the
per-shard WAL failover path (crash -> prefix-consistent respawn,
duplicate-apply idempotence), supervisor failure detection and hot-spot
rebalancing, and the headline guarantee: under chaos at 16x load with a
shard killed mid-stream, the cluster keeps serving and its final
assembled Memory/Mailbox state is bit-identical to a clean
single-replica replay.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterConfig,
    ReplicaDown,
    RpcTimeout,
    ServeCluster,
    ShardReplica,
    ShardRouter,
    SimRpc,
    Supervisor,
    hash_shard,
)
from reference import per_shard_gather, per_shard_load
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.integrity import array_digest
from repro.resilience import FaultInjector
from repro.resilience import hooks
from repro.serve import (
    EventBatch,
    ServeRuntime,
    SimClock,
    build_stream,
    replay,
    split_batches,
)

N = 60
DIM = 8


def _stream(events=600, num_nodes=N, seed=1):
    return build_stream(num_nodes, events, payload_dim=DIM, seed=seed)


def _cluster(stream, num_nodes=N, config=None, injector=None, **kw):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=num_nodes)
    ctx = TContext(g)
    kw.setdefault("deadline", 1.0)
    kw.setdefault("max_queue", 1 << 30)
    cluster = ServeCluster(
        g, ctx, TSampler(10, seed=3), DIM,
        config=config or ClusterConfig(num_shards=4),
        injector=injector, stream=stream, **kw,
    )
    return ctx, cluster


def _single_images(stream, batches, num_nodes=N, load=16.0):
    """Final Memory/Mailbox state of a clean single-runtime replay."""
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=num_nodes)
    ctx = TContext(g)
    mem = Memory(num_nodes, DIM)
    mailbox = Mailbox(num_nodes, DIM)
    runtime = ServeRuntime(g, ctx, mem, TSampler(10, seed=3), mailbox=mailbox,
                           deadline=1.0, max_queue=1 << 30)
    replay(runtime, batches, load=load)
    return mem, mailbox


def _cluster_digests(cluster):
    """(memory, mailbox) state digests of the assembled cluster images."""
    data, times = cluster.memory_image()
    mem_d = array_digest(data, times)
    img = cluster.mailbox_image()
    if img is None:
        return mem_d, None
    mail, mtime, cursor = img
    mail_d = (array_digest(mail, mtime) if cursor is None
              else array_digest(mail, mtime, cursor))
    return mem_d, mail_d


def _single_digests(stream, batches, num_nodes=N, load=16.0):
    """(memory, mailbox) state digests of a clean single-runtime replay."""
    mem, mailbox = _single_images(stream, batches, num_nodes, load)
    return mem.state_digest(), mailbox.state_digest()


def _replica(tmp_path, owned, name="shard", **kw):
    return ShardReplica(0, np.asarray(owned), N, DIM,
                        str(tmp_path / name), **kw)


def _payload_batch(eids, src, dst, ts, seed=0):
    rng = np.random.default_rng(seed)
    return EventBatch(np.asarray(eids), np.asarray(src), np.asarray(dst),
                      np.asarray(ts, dtype=np.float64),
                      rng.normal(size=(len(eids), DIM)).astype(np.float32))


# ---------------------------------------------------------------------------
# Partitioning (satellite: property-based policy tests)
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 500), st.integers(1, 8), st.integers(0, 2**32))
def test_hash_partition_deterministic_and_in_range(num_nodes, shards, seed):
    a = ShardRouter.hash(num_nodes, shards, seed=seed)
    b = ShardRouter.hash(num_nodes, shards, seed=seed)
    assert np.array_equal(a.assign, b.assign)
    assert a.assign.min() >= 0 and a.assign.max() < shards
    # and a pure function of the node id: subsetting agrees with the table
    nodes = np.arange(num_nodes)
    assert np.array_equal(hash_shard(nodes, shards, seed=seed), a.assign)


def test_hash_shard_placement_is_pinned():
    """Cluster throughput depends on where nodes land: the splitmix64 map
    of nodes 0..63 onto 4 and 16 shards must not move."""
    assert hash_shard(np.arange(64), 4).tolist() == [
        3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1, 3, 3, 2, 0, 0, 3, 2, 2, 0, 1, 2, 2,
        0, 0, 2, 2, 1, 0, 1, 3, 3, 3, 0, 0, 2, 1, 1, 0, 3, 2, 3, 1, 3, 0, 3, 0, 2, 2, 1, 0,
        3, 1, 2, 0, 3, 1, 2, 1]
    assert hash_shard(np.arange(64), 16).tolist() == [
        15, 1, 14, 13, 10, 10, 0, 7, 6, 4, 10, 13, 3, 15, 14, 5, 7, 3, 2, 4, 12, 7, 10, 6,
        4, 9, 10, 10, 12, 0, 14, 10, 1, 8, 13, 11, 11, 7, 0, 12, 2, 9, 5, 8, 3, 6, 7, 5, 3,
        8, 11, 8, 10, 6, 5, 12, 7, 1, 2, 12, 7, 1, 10, 5]


@st.composite
def zipf_streams(draw):
    """Heavily skewed (zipf-like) event streams over a small node set."""
    num_nodes = draw(st.integers(4, 80))
    num_events = draw(st.integers(1, 400))
    shards = draw(st.integers(1, min(6, num_nodes)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # zipf ranks clipped into the node range: a few nodes get most events
    src = np.minimum(rng.zipf(1.5, size=num_events) - 1, num_nodes - 1)
    dst = np.minimum(rng.zipf(1.5, size=num_events) - 1, num_nodes - 1)
    ts = np.sort(rng.uniform(0, 1e3, size=num_events))
    return num_nodes, shards, src.astype(np.int64), dst.astype(np.int64), ts


@settings(max_examples=30, deadline=None)
@given(zipf_streams())
def test_temporal_partition_deterministic_and_balanced(case):
    num_nodes, shards, src, dst, ts = case
    a = ShardRouter.temporal(src, dst, ts, num_nodes, shards)
    b = ShardRouter.temporal(src, dst, ts, num_nodes, shards)
    # deterministic across runs
    assert np.array_equal(a.assign, b.assign)
    assert (a.counts() > 0).all()
    # balance: no shard's event weight exceeds total/N + w_max, i.e. it is
    # within 2x of the makespan lower bound max(total/N, w_max) even on
    # zipf-skewed streams.
    weight = np.zeros(num_nodes)
    for ends in (src, dst):
        np.add.at(weight, ends, 1.0)
    shard_w = np.bincount(a.assign, weights=weight, minlength=shards)
    total, w_max = weight.sum(), weight.max()
    assert shard_w.max() <= total / shards + w_max + 1e-9
    assert shard_w.max() <= 2 * max(total / shards, w_max) + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(8, 200), st.integers(2, 6), st.integers(0, 2**16))
def test_assignment_stable_except_at_move_boundaries(num_nodes, shards, seed):
    router = ShardRouter.hash(num_nodes, shards, seed=seed)
    before = router.assign.copy()
    # queries never mutate the table
    router.shard_of(np.arange(num_nodes))
    router.counts()
    router.owned_nodes(0)
    assert router.version == 0
    assert np.array_equal(router.assign, before)
    # a move changes exactly the moved nodes and bumps the version
    rng = np.random.default_rng(seed)
    moved = rng.choice(num_nodes, size=min(3, num_nodes), replace=False)
    dst = (int(before[moved[0]]) + 1) % shards
    router.move(moved, dst)
    assert router.version == 1
    untouched = np.setdiff1d(np.arange(num_nodes), moved)
    assert np.array_equal(router.assign[untouched], before[untouched])
    assert (router.assign[moved] == dst).all()


def test_split_batch_covers_every_event_once_per_owner():
    stream = _stream(200)
    router = ShardRouter.hash(N, 4, seed=0)
    batch = split_batches(stream, 50)[0]
    subs = router.split_batch(batch)
    # every event lands in the sub-batch of each shard owning an endpoint
    for shard, sub in subs.items():
        owners = set(router.owned_nodes(shard).tolist())
        assert all(int(s) in owners or int(d) in owners
                   for s, d in zip(sub.src, sub.dst))
    covered = set()
    for sub in subs.values():
        covered.update(sub.eids.tolist())
    assert covered == set(batch.eids.tolist())


# ---------------------------------------------------------------------------
# RPC: timeouts, retries, hedging
# ---------------------------------------------------------------------------

def test_rpc_dead_host_exhausts_retries_and_raises():
    rpc = SimRpc(SimClock(), retries=2)
    with pytest.raises(RpcTimeout):
        rpc.call(0, alive=False)
    assert rpc.counters["rpc:retries"] == 2
    assert rpc.counters["rpc:timeouts"] == 3
    assert rpc.counters["rpc:failures"] == 1


def test_rpc_hedge_wins_when_primary_leg_is_lost():
    class DropPrimary:
        """Drop exactly the first attempt's request leg, not the hedge."""
        def poke(self, site, **info):
            if site == "rpc.send" and info.get("extra") == 7:
                return ("drop",)
            return None

    stub = DropPrimary()
    hooks.install(stub)
    try:
        rpc = SimRpc(SimClock(), retries=0)
        elapsed = rpc.call(3, extra=7)
    finally:
        hooks.uninstall(stub)
    assert rpc.counters["rpc:hedges"] == 1
    assert rpc.counters["rpc:hedge_wins"] == 1
    assert rpc.counters["rpc:dropped_sends"] == 1
    assert rpc.counters["rpc:failures"] == 0
    assert elapsed == pytest.approx(rpc.hedge_delay + rpc.service)


def test_rpc_delivers_exactly_once_per_successful_leg():
    deliveries = []
    rpc = SimRpc(SimClock(), hedge_delay=None)
    rpc.call(0, on_deliver=lambda: deliveries.append(1))
    assert len(deliveries) == 1


# ---------------------------------------------------------------------------
# Replica: WAL failover and idempotence
# ---------------------------------------------------------------------------

def test_replica_crash_respawn_is_bit_identical(tmp_path):
    owned = np.arange(0, N, 2)
    rep = _replica(tmp_path, owned, snapshot_every=3)
    for seq in range(7):
        batch = _payload_batch([seq], [2 * seq % N], [(2 * seq + 1) % N],
                               [float(seq)], seed=seq)
        assert rep.apply(batch, seq, epoch=0)
    digests_before = (rep.memory.state_digest(), rep.mailbox.state_digest())

    rep.crash()
    assert not rep.alive
    with pytest.raises(ReplicaDown):
        rep.gather(owned[:1])
    info = rep.respawn()
    assert rep.alive and rep.last_seq == 6
    # snapshot_every=3 means the WAL suffix past the last snapshot replays
    assert info["replayed"] == rep._since_snapshot
    assert (rep.memory.state_digest(), rep.mailbox.state_digest()) \
        == digests_before


def test_replica_duplicate_apply_is_a_noop(tmp_path):
    rep = _replica(tmp_path, np.arange(N))
    batch = _payload_batch([0], [1], [2], [1.0])
    assert rep.apply(batch, 0, epoch=0)
    snap = rep.memory.state_digest()
    # redelivery (hedge double-delivery, retry after lost ack): no-op
    assert not rep.apply(batch, 0, epoch=0)
    assert rep.counters[rep.key["duplicate_batches"]] == 1
    assert rep.memory.state_digest() == snap
    assert rep.counters[rep.key["applied_batches"]] == 1


def test_replica_release_adopt_preserves_rows(tmp_path):
    a = _replica(tmp_path, np.arange(0, 30), name="a")
    b = _replica(tmp_path, np.arange(30, N), name="b")
    batch = _payload_batch([0, 1], [3, 7], [5, 9], [1.0, 2.0])
    a.apply(batch, 0, epoch=0)
    moved = np.array([3, 5])
    rows_before = a.gather(moved).copy()
    state = a.release(moved)
    b.adopt(state)
    assert np.array_equal(b.gather(moved), rows_before)
    with pytest.raises(KeyError):
        a.gather(moved)


# ---------------------------------------------------------------------------
# Cluster: clean-path equivalence and scoring
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("partition", ["hash", "temporal"])
def test_cluster_matches_single_runtime_clean(partition):
    stream = _stream(400)
    batches = split_batches(stream, 40)
    config = ClusterConfig(num_shards=4, partition=partition)
    ctx, cluster = _cluster(stream, config=config)
    with cluster:
        results = replay(cluster, batches, load=16.0)
        assert all(r.status == "ok" for r in results)
        digests = _cluster_digests(cluster)
    assert digests == _single_digests(stream, batches)


def test_one_shard_cluster_answers_exactly_like_the_runtime():
    """Both deployments run the one engine loop: a 1-shard, factor-1
    cluster gives every request the runtime's status, rung, and scores
    bit for bit — only ``valid`` (a mask vs. None) tells them apart."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    runtime = ServeRuntime(g, TContext(g), Memory(N, DIM), TSampler(10, seed=3),
                           mailbox=Mailbox(N, DIM), deadline=1.0,
                           max_queue=1 << 30)
    single = replay(runtime, batches, load=4.0)
    ctx, cluster = _cluster(stream, config=ClusterConfig(num_shards=1))
    with cluster:
        sharded = replay(cluster, batches, load=4.0)
    assert [(r.status, r.level) for r in sharded] == \
        [(r.status, r.level) for r in single]
    for got, want in zip(sharded, single):
        assert got.scores.tobytes() == want.scores.tobytes()
        assert want.valid is None and got.valid.all()


def test_cluster_swap_model_changes_scores_not_state():
    """``swap_model`` is the engine's, so the cluster has it too: the
    table replaces shard reads when scoring and touches nothing else."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    table = np.random.default_rng(9).normal(size=(N, DIM)).astype(np.float32)

    def run(swap):
        ctx, cluster = _cluster(stream)
        with cluster:
            replay(cluster, batches[:5], load=4.0)
            if swap:
                assert cluster.swap_model(table, watermark=0.0) == 1
            results = replay(cluster, batches[5:], load=4.0)
            return results, _cluster_digests(cluster), cluster.stats()

    plain, plain_digests, plain_stats = run(swap=False)
    swapped, swapped_digests, swapped_stats = run(swap=True)
    assert swapped_digests == plain_digests
    assert all(r.status == "ok" for r in swapped)
    for before, after in zip(plain[:5], swapped[:5]):
        assert before.scores.tobytes() == after.scores.tobytes()
    assert any(a.scores.tobytes() != b.scores.tobytes()
               for a, b in zip(plain[5:], swapped[5:]))
    # the table is local to the coordinator: no shard read, nothing to mask
    assert all(r.valid is None for r in swapped[5:])
    assert (plain_stats["model:version"], swapped_stats["model:version"]) == (0, 1)
    assert swapped_stats["model:staleness"] > 0.0


def test_cluster_chaos_equivalence_with_shard_kill():
    """The headline guarantee: 16x load, a shard killed mid-stream, RPC
    drops, a stall window and heartbeat loss — the cluster keeps serving
    and converges to the exact single-replica state."""
    stream = _stream(600)
    batches = split_batches(stream, 40)
    injector = FaultInjector(
        seed=7,
        rates={"rpc.send.drop": 0.05, "rpc.recv.drop": 0.05,
               "heartbeat.drop": 0.02},
        schedules={"shard.crash": {(0, 5, 1)}, "shard.stall": {(0, 8, 2)}},
    )
    ctx, cluster = _cluster(stream, injector=injector)
    with cluster, injector:
        results = replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        digests = _cluster_digests(cluster)
    # the kill really happened, failover really ran
    assert stats["cluster:injected_crashes"] >= 1
    assert stats["cluster:failovers"] >= 1
    assert stats["cluster:recoveries"] >= 1
    assert stats["cluster:pending_applies"] == 0
    # service continued: every request completed (degraded, not dropped)
    assert all(r.status == "ok" for r in results)
    assert stats["cluster:partial_results"] > 0
    assert digests == _single_digests(stream, batches)


def test_cluster_partial_results_while_shard_down():
    stream = _stream(300)
    batches = split_batches(stream, 30)
    ctx, cluster = _cluster(stream)
    with cluster:
        # kill a shard out-of-band and serve one request before the
        # supervisor can possibly have respawned it
        cluster.replicas[2].crash()
        cluster.submit(batches[0])
        result = cluster.step()
        assert result is not None and result.status == "ok"
        stats = cluster.stats()
        assert stats["cluster:partial_results"] > 0
        assert stats["cluster:pending_applies"] > 0 or stats["cluster:deferred_applies"] > 0
        # drain settles every recovery and redelivers deferred applies
        replay(cluster, batches[1:], load=16.0)
        assert cluster.pending_applies() == 0
        assert all(rep.alive for rep in cluster.replicas)
        assert cluster.stats()["cluster:redelivered"] > 0


def test_cluster_rebalance_moves_hot_nodes_and_preserves_state():
    stream = _stream(200)
    ctx, cluster = _cluster(stream)
    with cluster:
        cluster.supervisor = Supervisor(
            cluster.clock, cluster.groups, cluster.router,
            rebalance_window=1e-3, rebalance_patience=1, rebalance_factor=1.5,
        )
        hot = int(np.argmax(cluster.router.counts()))
        hot_nodes = cluster.router.owned_nodes(hot)
        # apply one real batch so moved rows carry non-zero state
        batch = _payload_batch([0, 1], hot_nodes[:2], hot_nodes[2:4], [1.0, 2.0])
        cluster.replicas[hot].apply(batch, 0, epoch=0)
        rows_before = cluster.replicas[hot].gather(hot_nodes[:2]).copy()
        # fake a sustained hot spot on that shard, tick across windows
        for _ in range(4):
            cluster.supervisor.note_load({hot: 1000}, hot_nodes[:8])
            cluster.clock.advance(2e-3)
            cluster.supervisor.tick()
        stats = cluster.supervisor.counters
        assert stats["cluster:rebalances"] >= 1
        assert stats["cluster:nodes_moved"] > 0
        assert cluster.router.version >= 1
        # moved rows are still served, from whichever shard owns them now
        for i, node in enumerate(hot_nodes[:2]):
            owner = int(cluster.router.shard_of(np.array([node]))[0])
            row = cluster.replicas[owner].gather(np.array([node]))[0]
            assert np.array_equal(row, rows_before[i])


def test_sharded_cost_model_divides_by_live_shards():
    stream = _stream(100)
    ctx, cluster = _cluster(stream, config=ClusterConfig(num_shards=4))
    with cluster:
        model = cluster.ladder.cost_model
        c4 = model.estimate("full", 128)
        cluster.replicas[0].crash()
        cluster.replicas[1].crash()
        c2 = model.estimate("full", 128)
    assert c2 > c4  # fewer live shards -> less parallelism -> costlier


def test_cluster_close_is_idempotent():
    stream = _stream(100)
    ctx, cluster = _cluster(stream)
    replay(cluster, split_batches(stream, 50), load=4.0)
    cluster.close()
    cluster.close()  # second close must be a no-op
    assert all(rep.store is None for rep in cluster.replicas)


# ---------------------------------------------------------------------------
# replication: lease-fenced primary/follower groups
# ---------------------------------------------------------------------------

from repro.cluster import ReplicaGroup, StaleLeaseError, place_group_hosts
from repro.durable import read_batch_suffix


def _replicated(stream, factor, num_shards=4, injector=None, **cfg_kw):
    config = ClusterConfig(
        num_shards=num_shards, replication_factor=factor, **cfg_kw
    )
    return _cluster(stream, config=config, injector=injector)


def _assert_members_identical(cluster):
    """Every group member holds the same committed state, bit for bit."""
    for group in cluster.groups:
        first = group.members[0]
        for member in group.members[1:]:
            assert first.memory.state_digest() == \
                member.memory.state_digest(), (
                    f"group {group.shard_id}: member {member.member_id} "
                    "diverged"
                )
            if first.mailbox is not None:
                assert first.mailbox.state_digest() == \
                    member.mailbox.state_digest()
            assert first.last_seq == member.last_seq


def test_place_group_hosts_anti_affinity():
    placement = place_group_hosts(4, 3)
    assert len(placement) == 4
    for group in placement:
        assert len(set(group)) == 3  # no two members share a host
    # member 0 of shard i stays on host i (legacy single-replica layout)
    assert [g[0] for g in placement] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        place_group_hosts(4, 3, num_hosts=2)


def test_read_batch_suffix_orders_and_filters(tmp_path):
    rep = _replica(tmp_path, np.arange(N))
    for s in range(5):
        rep.apply(_payload_batch([s], [s], [s + 1], [float(s + 1)]), s, epoch=0)
    records = read_batch_suffix(rep.durable_dir, after_seq=2)
    assert [int(r.meta["seq"]) for r in records] == [3, 4]
    batch = EventBatch.from_arrays(records[0].arrays)
    assert batch.src[0] == 3 and batch.dst[0] == 4
    rep.close()


def test_stale_epoch_write_rejected_before_wal_append(tmp_path):
    """A zombie ex-primary writing under a fenced lease is rejected at
    the replica, before its WAL append — split-brain cannot diverge."""
    rep = _replica(tmp_path, np.arange(N))
    rep.apply(_payload_batch([0], [1], [2], [1.0]), 0, epoch=0)
    appends_before = rep.store.wal.last_lsn
    rep.lease_epoch = 2  # fenced by a promotion elsewhere
    with pytest.raises(StaleLeaseError):
        rep.apply(_payload_batch([1], [3], [4], [2.0]), 1, epoch=1)
    assert rep.counters[rep.key["stale_rejects"]] == 1
    assert rep.last_seq == 0  # neither applied ...
    assert rep.store.wal.last_lsn == appends_before  # ... nor logged
    rep.close()


@pytest.mark.parametrize("factor", [2, 3])
def test_replicated_clean_replay_members_bit_identical(factor):
    stream = _stream(400)
    batches = split_batches(stream, 40)
    ctx, cluster = _replicated(stream, factor)
    with cluster:
        results = replay(cluster, batches, load=16.0)
        assert all(r.status == "ok" for r in results)
        _assert_members_identical(cluster)
        mem_digest, _ = _cluster_digests(cluster)
        stats = cluster.stats()
    # every commit reached quorum on a clean network
    for i in range(4):
        assert stats[f"group:{i}:quorum_commits"] == stats[f"group:{i}:ships"]
        assert stats[f"group:{i}:under_quorum"] == 0
    assert stats["cluster:zero_rows"] == 0
    mem, _ = _single_images(stream, batches)
    assert mem.state_digest() == mem_digest


def test_primary_kill_promotes_follower_and_never_zero_fills():
    """The tentpole guarantee: killing a primary at factor 2 promotes the
    follower, reads fail over immediately (no zero-filled rows anywhere),
    and the final state is bit-identical to a clean single replay."""
    stream = _stream(600)
    batches = split_batches(stream, 40)
    injector = FaultInjector(
        seed=7,
        rates={"heartbeat.drop": 0.02},
        schedules={"shard.crash": {(0, 5, 1)}},  # shard 1's primary (member 0)
    )
    ctx, cluster = _replicated(stream, 2, injector=injector)
    with cluster, injector:
        results = replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        _assert_members_identical(cluster)
        digests = _cluster_digests(cluster)
    assert stats["cluster:injected_crashes"] >= 1
    assert stats["cluster:promotions"] >= 1
    assert stats["group:1:epoch"] >= 1
    assert all(r.status == "ok" for r in results)
    # no request ever saw a zero-filled row: reads failed over
    assert stats["cluster:zero_rows"] == 0
    assert all(r.valid is None or bool(r.valid.all()) for r in results)
    assert stats["cluster:follower_reads"] >= 1
    assert digests == _single_digests(stream, batches)


def test_cascading_failover_promoted_primary_killed():
    """Kill the primary, then kill the freshly promoted member while the
    first is still respawning — a second promotion must carry on from
    the highest acked LSN with no lost or zero-filled reads."""
    stream = _stream(600)
    batches = split_batches(stream, 40)
    injector = FaultInjector(
        seed=7,
        schedules={"shard.crash": {
            (0, 5, 1),       # shard 1 member 0 (the primary)
            (0, 8, 1 + 4),   # shard 1 member 1 (promoted meanwhile)
        }},
    )
    ctx, cluster = _replicated(stream, 3, injector=injector)
    with cluster, injector:
        results = replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        _assert_members_identical(cluster)
        mem_digest, _ = _cluster_digests(cluster)
    assert stats["cluster:injected_crashes"] >= 2
    assert stats["group:1:promotions"] >= 2
    assert stats["group:1:epoch"] >= 2
    assert all(r.status == "ok" for r in results)
    assert stats["cluster:zero_rows"] == 0
    assert stats["cluster:pending_applies"] == 0
    mem, _ = _single_images(stream, batches)
    assert mem.state_digest() == mem_digest


def test_ack_drop_below_quorum_is_counted_not_aborted():
    """Dropping every ack of one request's ships pushes those commits
    under quorum; the commit is never aborted (the cluster sequenced
    it), members converge with no sequence gaps."""
    stream = _stream(400)
    batches = split_batches(stream, 40)
    injector = FaultInjector(seed=7, schedules={"repl.ack.drop": {(0, 3)}})
    ctx, cluster = _replicated(stream, 3, injector=injector)
    with cluster, injector:
        replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        _assert_members_identical(cluster)
        mem_digest, _ = _cluster_digests(cluster)
        # no LSN gaps: every member applied the full committed sequence
        for group in cluster.groups:
            for member in group.members:
                assert member.last_seq == group.committed_seq
    under = sum(stats[f"group:{i}:under_quorum"] for i in range(4))
    acks_lost = sum(stats[f"group:{i}:acks_lost"] for i in range(4))
    assert under >= 1        # factor 3 needs 2 acks; only the primary's
    assert acks_lost >= 2    # both follower acks of that request died
    for i in range(4):
        assert (stats[f"group:{i}:quorum_commits"]
                + stats[f"group:{i}:under_quorum"]) == stats[f"group:{i}:ships"]
    mem, _ = _single_images(stream, batches)
    assert mem.state_digest() == mem_digest


def test_ack_drop_at_quorum_still_commits():
    """factor 2 with ack_quorum=1: losing the follower ack leaves the
    primary's own append at quorum — the commit counts as quorum-acked."""
    stream = _stream(200)
    batches = split_batches(stream, 40)
    injector = FaultInjector(seed=7, schedules={"repl.ack.drop": {(0, 2)}})
    ctx, cluster = _replicated(stream, 2, injector=injector, ack_quorum=1)
    with cluster, injector:
        replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        _assert_members_identical(cluster)
    assert sum(stats[f"group:{i}:acks_lost"] for i in range(4)) >= 1
    for i in range(4):
        assert stats[f"group:{i}:under_quorum"] == 0
        assert stats[f"group:{i}:quorum_commits"] == stats[f"group:{i}:ships"]


def test_ship_drop_parks_in_order_and_redelivers():
    stream = _stream(400)
    batches = split_batches(stream, 40)
    injector = FaultInjector(seed=7, schedules={"repl.ship.drop": {(0, 4)}})
    ctx, cluster = _replicated(stream, 2, injector=injector)
    with cluster, injector:
        replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        _assert_members_identical(cluster)
        mem_digest, _ = _cluster_digests(cluster)
    dropped = stats["rpc:dropped_ships"]
    assert dropped >= 1
    assert stats["cluster:deferred_applies"] >= dropped
    assert stats["cluster:redelivered"] >= dropped
    assert stats["cluster:pending_applies"] == 0
    mem, _ = _single_images(stream, batches)
    assert mem.state_digest() == mem_digest


def test_strict_staleness_promotes_before_reading():
    stream = _stream(300)
    batches = split_batches(stream, 30)
    ctx, cluster = _replicated(stream, 2, staleness_bound="strict")
    with cluster:
        cluster.groups[1].members[0].crash()  # primary down, out-of-band
        cluster.submit(batches[0])
        result = cluster.step()
        assert result is not None and result.status == "ok"
        # the gather refused the follower read and forced the promotion
        assert ctx.counters["cluster:strict_fallbacks"] >= 1
        assert cluster.groups[1].epoch >= 1
        assert cluster.groups[1].primary_idx == 1
        assert ctx.counters["cluster:zero_rows"] == 0
        replay(cluster, batches[1:], load=16.0)
        _assert_members_identical(cluster)


def test_bounded_staleness_serves_follower_without_promotion():
    stream = _stream(300)
    batches = split_batches(stream, 30)
    ctx, cluster = _replicated(stream, 2, staleness_bound="bounded")
    with cluster:
        cluster.groups[1].members[0].crash()
        cluster.submit(batches[0])
        result = cluster.step()
        assert result is not None and result.status == "ok"
        assert ctx.counters["cluster:zero_rows"] == 0
        # the follower answered directly; promotion happened only for the
        # *commit* path (a write still needs a leased primary)
        assert ctx.counters["cluster:follower_reads"] >= 1
        replay(cluster, batches[1:], load=16.0)
        _assert_members_identical(cluster)


def test_whole_group_down_marks_valid_mask():
    """Only when every member of a group is gone do rows zero-fill —
    and then the result carries a per-row validity mask."""
    stream = _stream(300)
    batches = split_batches(stream, 30)
    ctx, cluster = _cluster(stream)  # factor 1: one member per group
    with cluster:
        cluster.replicas[2].crash()
        cluster.submit(batches[0])
        result = cluster.step()
        assert result is not None and result.status == "ok"
        assert result.valid is not None
        assert not result.valid.all()  # dead-shard rows are marked
        assert result.valid.any()      # live-shard rows still authoritative
        assert ctx.counters["cluster:zero_rows"] > 0


@pytest.mark.parametrize("case", ["follower", "strict", "group_down"])
def test_grouped_gather_wave_equals_the_per_shard_loop(case):
    """One shard grouping per gather wave reads what a mask per shard read:
    the same rows, validity mask, counters, clock and promotions, through
    the same ``(shard, extra)`` RPC sequence — with a dead primary's reads
    failing over under dropped sends."""
    stream = _stream(300)
    batches = split_batches(stream, 30)
    nodes = np.random.default_rng(4).integers(0, N, 64)  # unsorted, repeats
    seen = []
    for gather in (ServeCluster._gather, per_shard_gather):
        ctx, cluster = _replicated(
            stream, 2, staleness_bound="strict" if case == "strict" else "bounded")
        with cluster:
            replay(cluster, batches[:4], load=16.0)
            cluster.groups[1].members[0].crash()  # out-of-band: not yet detected
            # a stalled primary times out mid-wave: its read fails over
            cluster.groups[3].primary.stall(cluster.clock.now(), 100.0, 1.0)
            if case == "group_down":
                for member in cluster.groups[2].members:
                    member.crash()
            calls, real = [], cluster.rpc.call

            def spy(shard, **kw):
                calls.append((shard, kw["extra"]))
                return real(shard, **kw)

            cluster.rpc.call = spy
            with FaultInjector(3, rates={"rpc.send.drop": 0.3}):
                rows, ok = gather(cluster, nodes, 11)
            counters = {k: v for k, v in ctx.counters.items()
                        if k != "integrity:scrub_seconds"}  # wall time
            seen.append((rows, ok, calls, counters, cluster.clock.now(),
                         [(g.primary_idx, g.epoch) for g in cluster.groups]))
    (rows, ok, calls, counters, now, primaries), want = seen
    assert np.array_equal(rows, want[0]) and np.array_equal(ok, want[1])
    assert calls == want[2]
    assert len({shard for shard, _ in calls}) == (3 if case == "group_down" else 4)
    assert counters == want[3] and now == want[4] and primaries == want[5]
    assert np.abs(rows[ok]).sum() > 0 and counters["rpc:failures"] > 0
    assert ok.all() == (case != "group_down")
    key = {"follower": "cluster:follower_reads", "strict": "cluster:strict_fallbacks",
           "group_down": "cluster:zero_rows"}[case]
    assert counters[key] > 0


def test_one_load_record_per_request_is_the_per_shard_records_summed():
    """A request's one ``note_load`` adds what one record per shard added:
    each shard's endpoint rows to the window load, every touched node to
    the touch counts."""
    from repro.cluster import coordinator

    stream = _stream(300)
    batches = split_batches(stream, 30)
    ctx, cluster = _cluster(stream, config=ClusterConfig(num_shards=5))
    plans, real = [], coordinator.plan_by_owner

    def spy(*args):
        plans.append(real(*args))
        return plans[-1]

    with cluster, mock.patch.object(coordinator, "plan_by_owner", spy):
        # a window that never closes: the record of the whole run stays
        sup = cluster.supervisor = Supervisor(
            cluster.clock, cluster.groups, cluster.router, rebalance_window=np.inf)
        replay(cluster, batches, load=16.0)
    load, touches = np.zeros(5), np.zeros(N)
    for parts in plans:
        one_load, one_touches = per_shard_load(parts, 5, N)
        load += one_load
        touches += one_touches
    assert len(plans) > 1 and load.sum() > 0
    assert np.array_equal(sup._window_load, load)
    assert np.array_equal(sup._node_touches, touches)


def test_quiesced_member_accrues_no_phi():
    """Satellite regression: a member quiesced for a planned hand-off
    must never be declared dead for beats it was told not to send."""
    stream = _stream(100)
    ctx, cluster = _replicated(stream, 2)
    with cluster:
        sup = cluster.supervisor
        sup.quiesce(0, 0)
        # way past dead_phi * heartbeat_interval with no beats from (0,0)
        for _ in range(10):
            cluster.clock.advance(5e-3)
            sup.tick()
        assert sup.counters["cluster:failovers"] == 0
        assert cluster.groups[0].members[0].alive
        sup.resume(0, 0)
        for _ in range(3):
            cluster.clock.advance(5e-3)
            sup.tick()
        # the quiesce window did not read as missed intervals after resume
        assert sup.counters["cluster:failovers"] == 0
        assert sup.state[0][0] == "ok"


def test_rebalance_with_replication_moves_all_members():
    stream = _stream(200)
    ctx, cluster = _replicated(stream, 2)
    with cluster:
        cluster.supervisor = Supervisor(
            cluster.clock, cluster.groups, cluster.router,
            rebalance_window=1e-3, rebalance_patience=1, rebalance_factor=1.5,
            rebalance_handoff_seconds=0.1,  # >> dead_phi * heartbeat_interval
        )
        hot = int(np.argmax(cluster.router.counts()))
        hot_nodes = cluster.router.owned_nodes(hot)
        batch = _payload_batch([0, 1], hot_nodes[:2], hot_nodes[2:4], [1.0, 2.0])
        cluster.groups[hot].ship(batch, 0, cluster.rpc, 0.0, extra=0)
        rows_before = cluster.replicas[hot].gather(hot_nodes[:2]).copy()
        for _ in range(4):
            cluster.supervisor.note_load({hot: 1000}, hot_nodes[:8])
            cluster.clock.advance(2e-3)
            cluster.supervisor.tick()
        stats = cluster.supervisor.counters
        assert stats["cluster:rebalances"] >= 1
        # the long quiesced hand-off window triggered no spurious failover
        assert stats["cluster:failovers"] == 0
        # moved rows are served identically by *both* members of the new
        # owner group
        for i, node in enumerate(hot_nodes[:2]):
            owner = int(cluster.router.shard_of(np.array([node]))[0])
            for member in cluster.groups[owner].members:
                row = member.gather(np.array([node]))[0]
                assert np.array_equal(row, rows_before[i])


def test_promote_delay_is_bounded_and_retried():
    """A repl.promote delay stalls the hand-off one tick; reads keep
    failing over to the follower meanwhile and the promotion lands."""
    stream = _stream(600)
    batches = split_batches(stream, 40)
    injector = FaultInjector(
        seed=7,
        rates={"repl.promote.delay": 1.0},  # every attempt delayed (capped)
        schedules={"shard.crash": {(0, 5, 1)}},
    )
    ctx, cluster = _replicated(stream, 2, injector=injector)
    with cluster, injector:
        results = replay(cluster, batches, load=16.0)
        stats = cluster.stats()
        _assert_members_identical(cluster)
        mem_digest, _ = _cluster_digests(cluster)
    assert stats["cluster:promote_delays"] >= 1
    assert stats["cluster:promotions"] >= 1  # the cap forced it through
    assert all(r.status == "ok" for r in results)
    assert stats["cluster:zero_rows"] == 0
    mem, _ = _single_images(stream, batches)
    assert mem.state_digest() == mem_digest
