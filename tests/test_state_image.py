"""One state image: every consumer sees and restores a change to *any* table.

The layout of a ``Memory`` / ``Mailbox`` is declared once (``tables()`` +
``TABLE_KEYS``).  Each test changes **only the last table** of the
component under test — for a multi-slot mailbox that is the ring cursor,
the table a hand-written copy, digest or repair is most likely to forget
— and checks that one layer above the core notices and restores it.
"""

import pathlib
import re

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro.bench.checkpoint import load_checkpoint, save_checkpoint
from repro.bench.resilient import ResilientTrainer
from repro.cluster import ClusterConfig, ServeCluster, ShardReplica
from repro.core.state import load_state_image, state_image
from repro.data import NegativeSampler
from repro.durable import DurableStateStore
from repro.integrity import array_digest
from repro.serve import (
    EventBatch,
    StateCommitter,
    build_stream,
    recover_serve_state,
    replay,
    split_batches,
)

N, DIM, ROW = 12, 4, 2
KINDS = {"memory": ("memory", 1), "mailbox-1": ("mailbox", 1), "mailbox-3": ("mailbox", 3)}


@pytest.fixture(params=list(KINDS))
def kind(request):
    return KINDS[request.param]


def _graph(slots):
    """A graph whose memory and mailbox hold distinct non-zero rows."""
    g = tg.TGraph(np.arange(N), (np.arange(N) + 1) % N, np.arange(N) + 1.0, num_nodes=N)
    g.set_memory(DIM)
    g.set_mailbox(DIM, slots=slots)
    rng = np.random.default_rng(0)
    for t in (1.0, 2.0):
        nodes = np.arange(0, N, 2 if t == 1.0 else 3)
        rows = rng.normal(size=(len(nodes), DIM)).astype(np.float32)
        g.mem.update(nodes, rows, np.full(len(nodes), t))
        g.mailbox.store(nodes, rows, np.full(len(nodes), t))
    return g


def _part(g, component):
    return g.mem if component == "memory" else g.mailbox


def _bump_last_table(tables):
    """Change one row of the last table only; returns that table."""
    last = tables[-1]
    last[ROW] += 1
    return last


class _Tiny(nn.Module):
    def __init__(self):
        super().__init__()
        self.lin = nn.Linear(2, 2)


def test_layout_is_declared_once(kind):
    component, slots = kind
    part = _part(_graph(slots), component)
    tables = part.tables()
    assert len(tables) == (3 if (component, slots) == ("mailbox", 3) else 2)
    assert list(part.image()) == list(part.TABLE_KEYS[: len(tables)])
    assert all(a is b for a, b in zip(part.image().values(), tables))  # live views
    assert part.state_digest() == array_digest(*tables)


def test_digest_and_image_cover_every_table(kind):
    component, slots = kind
    g = _graph(slots)
    part = _part(g, component)
    clean = part.state_digest()
    saved = {key: table.copy() for key, table in state_image(g.mem, g.mailbox).items()}

    _bump_last_table(part.tables())
    assert part.state_digest() != clean
    load_state_image(saved, g.mem, g.mailbox)
    assert part.state_digest() == clean

    part.reset()
    assert all(not table.any() for table in part.tables())


def test_checkpoint_round_trip(kind, tmp_path):
    component, slots = kind
    g, model = _graph(slots), _Tiny()
    part = _part(g, component)
    clean = part.state_digest()
    path = str(tmp_path / "ck.ckpt")
    save_checkpoint(path, model, graph=g)
    _bump_last_table(part.tables())
    load_checkpoint(path, model, graph=g)
    assert part.state_digest() == clean


def test_serve_snapshot_round_trip(kind, tmp_path):
    component, slots = kind
    g = _graph(slots)
    part = _part(g, component)
    clean = part.state_digest()
    with DurableStateStore(str(tmp_path)) as store:
        StateCommitter(g.mem, g.mailbox, store=store).write_snapshot()
        _bump_last_table(part.tables())
        recover_serve_state(store, g.mem, g.mailbox)
    assert part.state_digest() == clean


def test_trainer_snapshot_round_trip(kind, tmp_path):
    component, slots = kind
    g, model = _graph(slots), _Tiny()
    part = _part(g, component)
    trainer = ResilientTrainer(
        model, g, nn.Adam(model.parameters(), lr=1e-3),
        NegativeSampler(np.arange(N)), batch_size=4, checkpoint_dir=str(tmp_path),
    )
    clean = part.state_digest()
    snap = trainer._snapshot()
    _bump_last_table(part.tables())
    assert part.state_digest() != clean
    trainer._restore_snapshot(snap)
    assert part.state_digest() == clean


def _applied_replica(tmp_path, name, slots):
    rep = ShardReplica(0, np.arange(N), N, DIM, str(tmp_path / name), mailbox_slots=slots)
    rng = np.random.default_rng(1)
    batch = EventBatch(
        np.arange(8), np.arange(8), (np.arange(8) + 3) % N, np.arange(8) + 1.0,
        rng.normal(size=(8, DIM)).astype(np.float32),
    )
    rep.apply(batch, 0, epoch=0)
    return rep


def test_replica_tables_read_and_overwrite(kind, tmp_path):
    component, slots = kind
    rep = _applied_replica(tmp_path, "a", slots)
    donor = _applied_replica(tmp_path, "b", slots)
    part = getattr(rep, component)
    assert all(a is b for a, b in zip(rep.tables(component), part.tables()))
    maintained = getattr(rep.digests, component)

    _bump_last_table(rep.tables(component))
    assert maintained.diverged() != []  # the maintained digests cover the table
    rows = np.array([ROW])
    rep.overwrite_rows(component, rows, donor.read_rows(component, rows))
    assert maintained.diverged() == []
    assert part.state_digest() == getattr(donor, component).state_digest()

    # ...and the snapshot image carries it through a crash
    _bump_last_table(rep.tables(component))
    rep.write_snapshot()
    bumped = part.state_digest()
    rep.crash()
    rep.respawn()
    assert getattr(rep, component).state_digest() == bumped
    rep.close()
    donor.close()


def test_scrubber_repairs_from_shadow_state(kind):
    component, slots = kind
    stream = build_stream(N, 200, payload_dim=DIM, seed=4)
    g = tg.TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
    cluster = ServeCluster(
        g, tg.TContext(g), tg.TSampler(5, seed=3), DIM,
        config=ClusterConfig(num_shards=2), mailbox_slots=slots, stream=stream,
        deadline=1.0, max_queue=1 << 30,
    )
    with cluster:
        replay(cluster, split_batches(stream, 20), load=4.0)
        cluster.drain()
        rep = cluster.groups[1].members[0]
        clean = getattr(rep, component).state_digest()
        _bump_last_table(rep.tables(component))
        cluster.drain()  # terminal scrub: no peer, so the WAL shadow arbitrates
        assert cluster.stats()["integrity:wal_resyncs"] >= 1
        assert getattr(rep, component).state_digest() == clean


class TestStrictLoader:
    """One loader: a mismatched image raises, whoever calls it."""

    def test_missing_section_is_a_key_error(self):
        g = _graph(3)
        image = {k: v.copy() for k, v in state_image(g.mem).items()}
        with pytest.raises(KeyError, match="mailbox/mail"):
            load_state_image(image, g.mem, g.mailbox)

    def test_section_without_a_target_is_a_value_error(self):
        g = _graph(3)
        image = {k: v.copy() for k, v in state_image(g.mem, g.mailbox).items()}
        with pytest.raises(ValueError, match="no Mailbox attached"):
            load_state_image(image, g.mem, None)
        with pytest.raises(ValueError, match="mailbox/cursor"):
            load_state_image(image, g.mem, _graph(1).mailbox)

    def test_recovery_refuses_a_snapshot_without_its_mailbox(self, tmp_path):
        g = _graph(3)
        with DurableStateStore(str(tmp_path)) as store:
            StateCommitter(g.mem, None, store=store).write_snapshot()
            cursor = g.mailbox.tables()[-1].copy()
            with pytest.raises(KeyError, match="mailbox/mail"):
                recover_serve_state(store, g.mem, g.mailbox)
        np.testing.assert_array_equal(g.mailbox.tables()[-1], cursor)

    @pytest.mark.parametrize("bad", [
        lambda a: a[:1],  # would broadcast over every row
        lambda a: a.astype(np.float16),
    ], ids=["shape", "dtype"])
    def test_shape_or_dtype_mismatch_names_the_key(self, bad):
        g = _graph(1)
        image = {k: v.copy() for k, v in state_image(g.mem, g.mailbox).items()}
        before = g.mem.state_digest()
        image["mailbox/mail"] = bad(image["mailbox/mail"])
        g.mem.reset()
        with pytest.raises(ValueError, match="mailbox/mail"):
            load_state_image(image, g.mem, g.mailbox)
        assert g.mem.state_digest() != before  # nothing was half-loaded


def test_state_layout_and_file_io_have_one_home():
    """Guard: the ring cursor and raw file I/O stay behind their owners."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    cursor_homes = {src / "core" / "mailbox.py", src / "tgl" / "memory.py"}
    io = re.compile(r"np\.savez|np\.load\(|zlib\.crc32")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        if "_next_slot" in text and path not in cursor_homes:
            offenders.append(f"{path.relative_to(src)}: names Mailbox._next_slot")
        if path.is_relative_to(src / "bench") and io.search(text):
            offenders.append(f"{path.relative_to(src)}: {io.search(text).group()}")
    assert offenders == []
