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

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServeCluster, ShardReplica
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.integrity import ChunkedDigest, array_digest, canonical_bytes
from repro.serve import (
    EventBatch,
    ServeRuntime,
    apply_plan,
    plan_updates,
    replay,
    split_batches,
    stage_updates,
)

N, DIM = 48, 8


# ---- chunk digests ---------------------------------------------------------------------


def spelled_out(reader, num_rows, chunk_rows):
    """Every chunk digest recomputed from scratch, the way the format is defined."""
    out = []
    for chunk, lo in enumerate(range(0, num_rows, chunk_rows)):
        hi = min(num_rows, lo + chunk_rows)
        h = hashlib.sha256(f"chunk|{chunk}|{lo}|{hi}|".encode())
        for arr in reader(lo, hi):
            h.update(canonical_bytes(np.asarray(arr)))
        out.append(h.hexdigest())
    return out


def _readers():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((70, 6)).astype(np.float32)
    times = rng.random(70)
    wide = rng.standard_normal((70, 12)).astype(np.float32)
    box = Mailbox(70, 4, slots=3)
    for step in range(5):  # fill the ring unevenly so the cursor is not uniform
        nodes = rng.integers(0, 70, 40)
        box.store(nodes, rng.standard_normal((40, 4)).astype(np.float32), rng.random(40) + step)
    return {
        "contiguous": lambda lo, hi: (data[lo:hi], times[lo:hi]),
        "strided_view": lambda lo, hi: (wide[lo:hi, ::2], times[::-1][lo:hi]),
        "ring_with_cursor": lambda lo, hi: tuple(t[lo:hi] for t in box.tables()),
    }, data


@pytest.mark.parametrize("name", ["contiguous", "strided_view", "ring_with_cursor"])
@pytest.mark.parametrize("chunk_rows", [16, 32, 70, 100])  # 70 rows: ragged, exact, oversize
def test_chunk_digests_are_the_spelled_out_sha256(name, chunk_rows):
    readers, data = _readers()
    reader = readers[name]
    cd = ChunkedDigest(reader, 70, chunk_rows)
    want = spelled_out(reader, 70, chunk_rows)
    assert cd.digests == want and cd.compute() == want
    # ...and after a write through record_rows, with or without the chunk set
    data[[3, 40, 69]] += 1.0
    rows = np.array([69, 3, 40, 3])
    chunks = cd.record_rows(rows)
    assert chunks.tolist() == sorted({r // chunk_rows for r in rows.tolist()})
    want = spelled_out(reader, 70, chunk_rows)
    assert cd.digests == want
    data[5] -= 2.0
    assert cd.record_rows(np.array([5]), cd.chunks_of(np.array([5]))).tolist() == [0]
    assert cd.digests == spelled_out(reader, 70, chunk_rows)


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
            assert group.ship(batch, seq, cluster.rpc, 0.0, extra=seq) == 3
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


def test_plan_is_the_single_definition_of_an_applied_batch(tmp_path):
    """A replica's live apply, its own plan applied to fresh tables, and the
    un-sharded plan restricted to its rows all write the same bytes."""
    batch = tie_stream(64).take(np.arange(40))
    owned = np.arange(0, N, 2)
    rep = ShardReplica(0, owned, N, DIM, str(tmp_path / "s"), mailbox_slots=3)
    rep.apply(batch, 0)
    mem, box = Memory(len(owned), DIM), Mailbox(len(owned), DIM, slots=3)
    apply_plan(rep.plan(batch), mem, box)
    assert [t.tobytes() for t in mem.tables() + box.tables()] == _images(rep)
    whole_mem, whole_box = Memory(N, DIM), Mailbox(N, DIM, slots=3)
    apply_plan(plan_updates(*stage_updates(batch, DIM)), whole_mem, whole_box)
    assert [t[owned].tobytes() for t in whole_mem.tables() + whole_box.tables()] == _images(rep)
    rep.close()
