"""The apply path: one plan per sub-batch, digests bit-identical to the spec.

Covers what PR 15 rebuilt: chunk digests that cache their constant parts
and feed slices to the hash directly must still spell
``sha256(prefix + canonical_bytes(slice)...)``; one :class:`ApplyPlan`
shared by every member of a replica group must leave the members
bit-identical to each other, to a WAL replay, to ``shadow_state()`` and to
a single ``ServeRuntime`` — including tie groups whose rows differ — and
must never let two members alias a row.
"""

import hashlib
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import sequential_commit
from repro.cluster import ClusterConfig, ServeCluster, ShardReplica, ShardRouter
from repro.cluster.replica import prepare_shards
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.integrity import ChunkedDigest, array_digest, merkle_root
from repro.serve import (
    EventBatch,
    ServeRuntime,
    apply_plan,
    plan_by_owner,
    plan_updates,
    replay,
    split_batches,
    stage_updates,
)

N, DIM = 48, 8


# ---- chunk digests ---------------------------------------------------------------------


def spelled_out(tables, num_rows, chunk_rows):
    """Every chunk digest recomputed from scratch, the way the format is defined:
    a sha256 leaf per row over the row's bytes in each table, a chunk digest
    over ``chunk|c|lo|hi|``, each table's ``dtype|row shape|`` tag, and its leaves."""
    tables = [np.asarray(t) for t in tables()]
    schema = "".join(
        f"{t.dtype.str}|{','.join(str(s) for s in t.shape[1:])}|" for t in tables
    ).encode()
    out = []
    for chunk, lo in enumerate(range(0, num_rows, chunk_rows)):
        hi = min(num_rows, lo + chunk_rows)
        h = hashlib.sha256(f"chunk|{chunk}|{lo}|{hi}|".encode() + schema)
        for row in range(lo, hi):
            h.update(hashlib.sha256(b"".join(t[row].tobytes() for t in tables)).digest())
        out.append(h.hexdigest())
    return out


def _tables(seed=0):
    """Three table sets of 70 rows, each with the write a legitimate writer makes."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((70, 6)).astype(np.float32)
    times = rng.random(70)
    wide = rng.standard_normal((70, 12)).astype(np.float32)
    box = Mailbox(70, 4, slots=3)

    def deliver(rows):
        box.store(rows, rng.standard_normal((len(rows), 4)).astype(np.float32),
                  rng.random(len(rows)) + 1.0)

    def overwrite(tables):
        def write(rows):
            for t in tables():  # views: the write lands in the backing arrays
                t[rows] = rng.standard_normal(t[rows].shape).astype(t.dtype)
        return write

    for _ in range(5):  # fill the ring unevenly so the cursor is not uniform
        deliver(rng.integers(0, 70, 40))
    contiguous = lambda: (data, times)
    strided_view = lambda: (wide[:, ::2], times[::-1])
    return {
        "contiguous": (contiguous, overwrite(contiguous)),
        "strided_view": (strided_view, overwrite(strided_view)),
        "ring_with_cursor": (box.tables, deliver),
    }


TABLE_SETS = ["contiguous", "strided_view", "ring_with_cursor"]
CHUNK_ROWS = [16, 32, 70, 100]  # 70 rows: ragged, exact, oversize


@pytest.mark.parametrize("name", TABLE_SETS)
@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
def test_chunk_digests_are_the_spelled_out_sha256(name, chunk_rows):
    tables, write = _tables()[name]
    cd = ChunkedDigest(tables, 70, chunk_rows)
    want = spelled_out(tables, 70, chunk_rows)
    assert cd.digests == want and cd.compute() == want
    assert cd.compute(range(cd.num_chunks)[::-1]) == want[::-1]  # in the order asked
    # ...and after a write through record_rows, with or without the chunk set
    rows = np.array([69, 3, 40, 3])
    write(rows)
    chunks = cd.record_rows(rows)
    assert chunks.tolist() == sorted({r // chunk_rows for r in rows.tolist()})
    assert cd.digests == spelled_out(tables, 70, chunk_rows)
    write(np.array([5]))
    assert cd.record_rows(np.array([5]), cd.chunks_of(np.array([5]))).tolist() == [0]
    assert cd.digests == spelled_out(tables, 70, chunk_rows)


@pytest.mark.parametrize("name", TABLE_SETS)
@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_recorded_writes_keep_up_and_any_unrecorded_bit_flip_is_localised(
        name, chunk_rows, data):
    tables, write = _tables(data.draw(st.integers(0, 3)))[name]
    cd = ChunkedDigest(tables, 70, chunk_rows)
    for rows in data.draw(st.lists(st.lists(st.integers(0, 69), min_size=1, max_size=12),
                                   max_size=6)):
        rows = np.array(rows)
        write(rows)
        cd.record_rows(rows)
        assert cd.diverged() == []  # eager: the leaves keep up write by write
    assert cd.digests == cd.compute() and cd.diverged() == []
    assert cd.root() == merkle_root(cd.compute())
    # one bit of one cell of one table, behind the digest's back
    table = tables()[data.draw(st.integers(0, len(tables()) - 1))]
    cell = tuple(data.draw(st.integers(0, n - 1)) for n in table.shape)
    value = np.array([table[cell]])
    bit = data.draw(st.integers(0, 8 * value.itemsize - 1))
    value.view(np.uint8)[bit // 8] ^= np.uint8(1 << (bit % 8))
    table[cell] = value[0]
    assert cd.diverged() == [cell[0] // chunk_rows]
    cd.record_rows(np.array([cell[0]]))  # a legitimate write re-adopts the row
    assert cd.diverged() == []


# ---- one plan, many members --------------------------------------------------------------


def tie_stream(events=240, seed=5):
    """Duplicate endpoints, self-loops, and same-(node, time) events whose
    payloads differ — a tie group only the byte rule can order."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N // 3, events)  # few nodes: duplicates in every batch
    dst = rng.integers(0, N, events)
    dst[::7] = src[::7]  # self-loops: both endpoints stage the same (node, time)
    ts = np.repeat(np.arange(events // 4, dtype=np.float64) + 1.0, 4)  # 4 events per timestamp
    src[1::4] = src[0::4]  # ...two of which share the source node: differing-bytes ties
    payload = rng.standard_normal((events, DIM)).astype(np.float32)
    payload[2::8] = payload[1::8]  # and some byte-identical ones
    return EventBatch(np.arange(events), src, dst, ts, payload)


#: (src, dst, time slot, payload kind) per event: few nodes, slots and kinds,
#: so duplicate endpoints, self-loops and (node, time) ties with equal and
#: with differing payload bytes are the common case, plus ids nobody owns.
_NODE = st.one_of(st.integers(-2, 7), st.integers(N - 2, N + 1))
_EVENTS = st.lists(st.tuples(_NODE, _NODE, st.integers(0, 2), st.integers(0, 2)),
                   min_size=1, max_size=24)
_KINDS = np.random.default_rng(9).standard_normal((3, DIM)).astype(np.float32)


#: nodes a rebalance moves, and the shard index (mod the shard count) they go to.
_MOVE = st.tuples(st.lists(st.integers(0, N - 1), max_size=12, unique=True), st.integers(0, 4))


def _router(shards, salt, move):
    """Hash ownership, then one rebalance ``move`` of *move*'s nodes."""
    router = ShardRouter.hash(N, shards, seed=salt)
    router.move(np.array(move[0], dtype=np.int64), move[1] % shards)
    return router


def assert_same_prepared(got, want):
    """Two preparations agree on record bytes, every plan array's bytes
    (NaN payloads included) and dtype, the leaves and the chunks."""
    assert got.record == want.record
    for a, b in zip(got.plan, want.plan):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    np.testing.assert_array_equal(got.leaves, want.leaves)
    np.testing.assert_array_equal(got.chunks, want.chunks)


@settings(max_examples=40, deadline=None)
@given(_EVENTS, st.integers(1, 5), st.sampled_from([1, 3]), st.integers(0, 2**16), _MOVE)
def test_each_shards_slice_of_the_one_plan_is_the_plan_its_replica_makes(
        events, shards, slots, salt, move):
    src, dst, slot, kind = (np.array(c, dtype=np.int64) for c in zip(*events))
    batch = EventBatch(np.arange(len(events)), src, dst, slot + 1.0, _KINDS[kind])
    router = _router(shards, salt, move)
    ends = router.endpoint_shards(batch)
    nodes, values, times = stage_updates(batch, DIM)
    parts = plan_by_owner(nodes, values, times, np.concatenate(ends))
    subs = router.split_batch(batch, ends)
    assert list(parts) == list(subs) == sorted(subs)
    images = {}
    with tempfile.TemporaryDirectory() as root:
        reps = {shard: ShardReplica(shard, router.owned_nodes(shard), N, DIM,
                                    os.path.join(root, str(shard)), mailbox_slots=slots)
                for shard in subs}
        # the commit's one preparation for every shard, each at its own epoch
        joint = prepare_shards(list(reps.values()), list(subs.values()), 5,
                               list(subs), [parts[shard] for shard in subs])
        for (shard, sub), prepared in zip(subs.items(), joint):
            touches = (ends[0] == shard) | (ends[1] == shard)
            assert sub.eids.tolist() == np.flatnonzero(touches).tolist()
            rep = reps[shard]
            live = rep.prepare(sub, 5, shard, parts[shard])
            for sliced, own in zip(live[1], rep.plan(sub)):
                assert sliced.dtype == own.dtype and np.array_equal(sliced, own)
            assert_same_prepared(prepared, live)
            assert_same_prepared(prepared, rep.prepare(sub, 5, shard))
            assert rep.apply(sub, 5, epoch=shard, prepared=prepared)
            for comp in ("memory", "mailbox"):
                assert getattr(rep.digests, comp).diverged() == []
                for k, table in enumerate(rep.tables(comp)):
                    images.setdefault((comp, k), []).append((rep.owned, table.copy()))
            rep.close()
    mem, box = sequential_commit(batch, N, DIM, slots)
    for comp, want in (("memory", mem), ("mailbox", box)):
        got = [np.zeros_like(t) for t in want.tables()]
        for k, table in enumerate(got):
            for owned, rows in images.get((comp, k), []):
                table[owned] = rows
        assert array_digest(*got) == want.state_digest()


#: cells a payload may carry: signed zeros, NaNs (one with low mantissa bits a
#: float32 cast drops), and a value float32 rounds.
_SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, 1.0 / 3.0,
                      np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64)])
_KINDS64 = np.random.default_rng(9).standard_normal((3, DIM))


@settings(max_examples=40, deadline=None)
@given(_EVENTS, st.integers(1, 3), st.sampled_from([1, 3]),
       st.sampled_from(["float32", "float64", "time-encoded"]),
       st.lists(st.tuples(st.integers(0, 23), st.integers(0, DIM - 1),
                          st.integers(0, len(_SPECIALS) - 1)), max_size=6),
       st.integers(0, 2**16), _MOVE)
def test_plan_leaves_are_the_leaves_of_the_rows_written(
        events, shards, slots, payload, cells, salt, move):
    """The leaves a commit hashes once from its plan — for all shards in one
    preparation — equal each replica's own preparation and a fresh hash of
    every member's live rows after the write, whatever the payload dtype or
    width, and ``record_rows`` covers the chunks the rows fall in."""
    src, dst, slot, kind = (np.array(c, dtype=np.int64) for c in zip(*events))
    rows = _KINDS64[kind]
    for event, col, special in cells:
        rows[event % len(rows), col] = _SPECIALS[special]
    width = DIM if payload != "time-encoded" else DIM - 3
    batch = EventBatch(np.arange(len(events)), src, dst, slot + 1.0, rows[:, :width])
    nodes, values, times = stage_updates(batch, DIM)
    if payload == "float64":  # a payload the stores must cast on the way in
        values = np.concatenate([rows, rows])
    router = _router(shards, salt, move)
    ends = router.endpoint_shards(batch)
    parts = plan_by_owner(nodes, values, times, np.concatenate(ends))
    subs = router.split_batch(batch, ends)
    recorded = []
    real = ChunkedDigest.record_rows

    def spy(cd, rows, chunks=None, leaves=None):
        out = real(cd, rows, chunks, leaves)
        recorded.append((cd.chunks_of(rows), out))
        return out

    with tempfile.TemporaryDirectory() as root, mock.patch.object(
            ChunkedDigest, "record_rows", spy):
        reps = {shard: ShardReplica(shard, router.owned_nodes(shard), N, DIM,
                                    os.path.join(root, str(shard)), mailbox_slots=slots)
                for shard in subs}
        joint = prepare_shards(list(reps.values()), list(subs.values()), 0,
                               [0] * len(subs), [parts[shard] for shard in subs])
        for (shard, sub), prepared in zip(subs.items(), joint):
            rep = reps[shard]
            assert_same_prepared(prepared, rep.prepare(sub, 0, 0, parts[shard]))
            later = EventBatch(sub.eids, sub.src, sub.dst, sub.ts + 3.0, sub.payload)
            # a commit's shared preparation, then a redelivery that prepares
            # for itself
            for seq, (step, ready) in enumerate([(sub, prepared), (later, None)]):
                assert rep.apply(step, seq, epoch=0, prepared=ready)
                for comp, cd in rep.digests.components():
                    np.testing.assert_array_equal(
                        cd.leaves, cd._row_leaves(np.arange(cd.num_rows)), err_msg=comp)
            rep.close()
    assert all(np.array_equal(want, got) for want, got in recorded)


def _images(rep):
    return [t.tobytes() for comp in ("memory", "mailbox") for t in rep.tables(comp)]


@pytest.mark.parametrize("slots", [1, 3])
def test_group_members_replay_shadow_and_runtime_agree_on_tie_groups(slots):
    stream = tie_stream()
    batches = split_batches(stream, 24)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    cluster = ServeCluster(
        g, TContext(g), TSampler(5, seed=3), DIM,
        config=ClusterConfig(num_shards=2, replication_factor=3),
        mailbox_slots=slots, stream=stream, deadline=1.0, max_queue=1 << 30,
    )
    mem, box = Memory(N, DIM), Mailbox(N, DIM, slots=slots)
    runtime = ServeRuntime(g, TContext(g), mem, TSampler(5, seed=3), mailbox=box,
                           deadline=1.0, max_queue=1 << 30)
    replay(runtime, batches, load=4.0)
    with cluster:
        replay(cluster, batches, load=4.0)
        cluster.drain()
        assert array_digest(*cluster.memory_image()) == mem.state_digest()
        image = [t for t in cluster.mailbox_image() if t is not None]
        assert array_digest(*image) == box.state_digest()
        for group in cluster.groups:
            first = _images(group.members[0])
            for rep in group.members:
                assert _images(rep) == first  # all three members, bit for bit
                for comp, cd in rep.digests.components():
                    assert cd.diverged() == []  # eager refresh kept up
                shadow_mem, shadow_box, seq = rep.shadow_state()
                assert seq == rep.last_seq
                assert [t.tobytes() for t in shadow_mem.tables() + shadow_box.tables()] == first
            victim = group.members[2]
            victim.crash()
            victim.respawn()  # snapshot + WAL suffix through the same plan
            assert _images(victim) == first


def test_a_shared_plan_never_aliases_member_tables(tmp_path):
    """``ship`` without a Prepared makes one for the whole group."""
    _ship_shared_and_check_no_alias(tmp_path, "group")


def test_a_commit_prepared_record_never_aliases_member_tables(tmp_path):
    """The coordinator's path: every member takes the commit's Prepared."""
    _ship_shared_and_check_no_alias(tmp_path, "commit")


def _ship_shared_and_check_no_alias(tmp_path, made_by):
    """Members share one Prepared, made by the commit or by ``ship``, yet
    never share a row or a leaf."""
    stream = tie_stream(96)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    cluster = ServeCluster(
        g, TContext(g), TSampler(5, seed=3), DIM,
        config=ClusterConfig(num_shards=1, replication_factor=3,
                             durable_root=str(tmp_path)),
        stream=stream, deadline=1.0, max_queue=1 << 30,
    )
    with cluster:
        group = cluster.groups[0]
        for seq, batch in enumerate(split_batches(stream, 24)):
            given = None
            if made_by == "commit":
                given = prepare_shards([group.members[0]], [batch], seq, [group.epoch], [None])[0]
            with mock.patch("repro.cluster.replica.prepare_shards",
                            wraps=prepare_shards) as made:
                assert group.ship(batch, seq, cluster.rpc, 0.0, extra=seq,
                                  prepared=given) == 3
            assert made.call_count == (made_by == "group")  # one per group, or none
            a, b, c = group.members
            before = _images(b), _images(c)
            row = int(batch.src[0])
            for table in a.tables("memory") + a.tables("mailbox"):
                flat = table[row:row + 1].view(np.uint8)
                flat[...] ^= 0xFF  # flip every bit of the row just written
            assert (_images(b), _images(c)) == before
            assert a.digests.memory.diverged() and not b.digests.memory.diverged()
            # put it back so the next ship starts from identical members
            for table in a.tables("memory") + a.tables("mailbox"):
                table[row:row + 1].view(np.uint8)[...] ^= 0xFF
            assert _images(a) == before[0]
            # every member adopted the group's leaves as its own copy: a
            # later record on one member's memory moves nothing else
            kept = [cd.leaves.copy() for m in group.members for _, cd in m.digests.components()]
            a.digests.memory.record_rows(np.array([row]), leaves=np.full((1, 32), 0xAB, np.uint8))
            now = [cd.leaves for m in group.members for _, cd in m.digests.components()]
            assert [np.array_equal(k, n) for k, n in zip(kept, now)] == [False] + [True] * 5
            a.digests.memory.record_rows(np.array([row]))  # re-adopt the live row


def test_plan_is_the_single_definition_of_an_applied_batch(tmp_path):
    """A replica's live apply, its own plan applied to fresh tables, and the
    un-sharded plan restricted to its rows all write the same bytes."""
    batch = tie_stream(64).take(np.arange(40))
    owned = np.arange(0, N, 2)
    rep = ShardReplica(0, owned, N, DIM, str(tmp_path / "s"), mailbox_slots=3)
    rep.apply(batch, 0, epoch=0)
    mem, box = Memory(len(owned), DIM), Mailbox(len(owned), DIM, slots=3)
    apply_plan(rep.plan(batch), mem, box)
    assert [t.tobytes() for t in mem.tables() + box.tables()] == _images(rep)
    whole_mem, whole_box = Memory(N, DIM), Mailbox(N, DIM, slots=3)
    apply_plan(plan_updates(*stage_updates(batch, DIM)), whole_mem, whole_box)
    assert [t[owned].tobytes() for t in whole_mem.tables() + whole_box.tables()] == _images(rep)
    rep.close()
