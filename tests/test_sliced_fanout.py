"""A commit's fan-out is one owner-ordered pass, sliced per shard.

``ServeCluster._commit`` puts a request's events in owner order once
(``ShardRouter.split_batch``: one copy, every shard's sub-batch a read-only
view of its run) and prepares every shard from that one layout
(``prepare_shards``: one record encoder call, one watermark pass, one
``row_leaves``, one chunk count).  Each shard must still get exactly what
the per-shard loop gave it — :func:`reference.per_shard_prepare` — byte
for byte, whichever shards are ready; and a sub-batch parked for a member
must redeliver the same bytes however many commits come after it.
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from reference import per_shard_prepare
from repro.cluster import ClusterConfig, ServeCluster, ShardReplica, ShardRouter
from repro.cluster.replica import prepare_shards
from repro.core import TBatch, TContext, TGraph, TSampler
from repro.durable import DurableStateStore, decode_payload
from repro.serve import build_stream, plan_by_owner, split_batches, stage_updates

N, DIM = 48, 8

#: endpoints: a few owned ids, so repeats, self-loops and ties are common,
#: plus ids outside the node space that no shard owns.
_NODE = st.one_of(st.integers(-2, 9), st.integers(N - 3, N + 1))
_EVENTS = st.lists(st.tuples(_NODE, _NODE, st.integers(0, 3), st.integers(0, 2)),
                   min_size=1, max_size=30)
_ROWS = np.random.default_rng(4).standard_normal((3, DIM)).astype(np.float32)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_EVENTS, st.sampled_from([1, 4, 16]), st.sampled_from(["payload", "none", "narrow"]),
       st.lists(st.integers(0, N - 1), max_size=10, unique=True), st.integers(0, 15),
       st.integers(0, 2**16), st.randoms(use_true_random=False))
def test_every_shards_slice_equals_the_per_shard_loop(
        events, shards, payload, moved, dst, salt, rnd):
    src, dst_ids, slot, kind = (np.array(c, dtype=np.int64) for c in zip(*events))
    rows = {"payload": _ROWS[kind], "none": None, "narrow": _ROWS[kind][:, :DIM - 2]}[payload]
    batch = TBatch(np.arange(len(events)) * 3 + 1, src, dst_ids, slot * 0.5 + 1.0, rows)
    router = ShardRouter.hash(N, shards, seed=salt)
    router.move(np.array(moved, dtype=np.int64), dst % shards)  # a rebalance
    ends = router.endpoint_shards(batch)
    split = router.split_batch(batch, ends)
    parts = plan_by_owner(*stage_updates(batch, DIM), np.concatenate(ends))
    seq, epochs = 7, [3 * s + 1 for s in range(shards)]
    with tempfile.TemporaryDirectory() as root:
        members = [ShardReplica(s, router.owned_nodes(s), N, DIM, os.path.join(root, str(s)))
                   for s in range(shards)]
        want = per_shard_prepare(router, members, batch, seq, epochs, DIM)
        assert list(split) == list(parts) == list(want)
        # every shard ready, or only some (a group that is down is skipped)
        ready = sorted(s for s in split if rnd.random() < 0.6) if len(split) > 1 else list(split)
        got = prepare_shards([members[s] for s in ready], split.events,
                             [split.spans[s] for s in ready], seq,
                             [epochs[s] for s in ready], [parts[s] for s in ready])
        for shard, sub in split.items():
            ref_sub, record, plan, leaves, chunks, watermark = want[shard]
            mine, theirs, whole = sub.to_arrays(), ref_sub.to_arrays(), split.events.to_arrays()
            assert list(mine) == list(theirs)
            for name, a in mine.items():
                b = theirs[name]
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                # a read-only view of the split's one copy
                assert not a.flags.writeable and np.shares_memory(a, whole[name])
            if shard not in ready:
                continue
            prepared = got[ready.index(shard)]
            assert prepared.record == record
            assert decode_payload(prepared.record)[1]["watermark"] == watermark
            for a, b in zip(prepared.plan, plan):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert prepared.leaves.tobytes() == leaves.tobytes()
            assert (prepared.chunks.dtype, prepared.chunks.tolist()) == (chunks.dtype, chunks.tolist())
            # the one-shard case — redelivery and replay — is the same function
            alone = members[shard].prepare(sub, seq, epochs[shard])
            assert alone.record == record and alone.leaves.tobytes() == leaves.tobytes()
        for m in members:
            m.close()


def test_a_parked_sub_batch_redelivers_its_bytes_after_three_more_commits(tmp_path):
    stream = build_stream(60, 400, DIM, seed=5)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=60)
    cluster = ServeCluster(
        g, TContext(g), TSampler(5, seed=1), DIM,
        config=ClusterConfig(num_shards=2, replication_factor=2,
                             durable_root=str(tmp_path)),
        deadline=1.0, max_queue=1 << 30,
    )
    logged = []
    real_log = DurableStateStore.log_encoded

    def spy(store, record):
        logged.append((store, record))
        return real_log(store, record)

    with cluster, mock.patch.object(DurableStateStore, "log_encoded", spy):
        group = cluster.groups[0]
        primary, follower = group.members
        first, *later = split_batches(stream, 20)[:4]
        # the first commit's ship to the follower is dropped on the wire...
        with mock.patch.object(cluster.rpc, "ship", return_value=(False, False)):
            cluster.submit(first)
            cluster.step()
        (seq, sub), = group._pending[1]
        kept = [a.copy() for a in sub.to_arrays().values()]
        # ...and the follower is down for three more commits, so it stays parked
        follower.crash()
        for batch in later:
            cluster.submit(batch)
            cluster.step()
        parked = list(group._pending[1])
        assert len(parked) == 4 and parked[0][1] is sub
        assert not any(store is follower.store for store, _ in logged)
        assert all(not a.flags.writeable for a in sub.to_arrays().values())
        assert all(np.array_equal(a, b) for a, b in zip(kept, sub.to_arrays().values()))
        sent = {decode_payload(r)[1]["seq"]: r for store, r in logged if store is primary.store}
        follower.respawn()
        group.rejoin(1)
        assert not group._pending[1]
        redelivered = [r for store, r in logged if store is follower.store]
        # every parked record — the first one three commits old — is the
        # primary's record byte for byte
        assert [decode_payload(r)[1]["seq"] for r in redelivered] == [s for s, _ in parked]
        assert redelivered == [sent[s] for s, _ in parked]
        assert [t.tobytes() for t in follower.tables("memory")] == \
            [t.tobytes() for t in primary.tables("memory")]
