"""Tests for full-training-state checkpointing."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.bench import evaluate, train_epoch
from repro.bench.checkpoint import (
    checkpoint_arrays,
    load_checkpoint,
    save_checkpoint,
)
from repro.durable.snapshot import load_latest, read_container, write_container
from repro.data import NegativeSampler, get_dataset
from repro.models import TGN, OptFlags


@pytest.fixture
def trained_setup(tmp_path):
    ds = get_dataset("wiki")
    g = ds.build_graph()
    ctx = tg.TContext(g)
    g.set_memory(8)
    g.set_mailbox(TGN.required_mailbox_dim(8, 172))
    model = TGN(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                dim_mem=8, num_layers=1, num_nbrs=3, dropout=0.0,
                opt=OptFlags.none())
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    neg = NegativeSampler.for_dataset(ds)
    train_epoch(model, g, optimizer, neg, 300, stop=600)
    return ds, g, model, optimizer, neg, tmp_path


class TestRoundTrip:
    def test_model_parameters_restored(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ckpt.npz")
        save_checkpoint(path, model, graph=g, optimizer=optimizer)
        snapshot = {n: p.data.copy() for n, p in model.named_parameters()}
        for p in model.parameters():
            p.data[...] = 0.0
        load_checkpoint(path, model, graph=g, optimizer=optimizer)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, snapshot[name])

    def test_memory_and_mailbox_restored(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ckpt.npz")
        save_checkpoint(path, model, graph=g, optimizer=optimizer)
        mem_snapshot = g.mem.data.data.copy()
        mail_snapshot = g.mailbox.mail.data.copy()
        g.reset_state()
        load_checkpoint(path, model, graph=g, optimizer=optimizer)
        np.testing.assert_array_equal(g.mem.data.data, mem_snapshot)
        np.testing.assert_array_equal(g.mailbox.mail.data, mail_snapshot)

    def test_optimizer_moments_restored(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ckpt.npz")
        save_checkpoint(path, model, graph=g, optimizer=optimizer)
        fresh_opt = nn.Adam(model.parameters(), lr=1e-3)
        load_checkpoint(path, model, graph=g, optimizer=fresh_opt)
        assert fresh_opt._t == optimizer._t
        for p in model.parameters():
            if id(p) in optimizer._m:
                np.testing.assert_array_equal(fresh_opt._m[id(p)], optimizer._m[id(p)])

    def test_resume_produces_identical_continuation(self, trained_setup):
        """Save mid-stream, continue; reload and continue again: identical."""
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ckpt.npz")
        save_checkpoint(path, model, graph=g, optimizer=optimizer)

        neg.reset()
        _, ap_first = evaluate(model, g, neg, 300, start=600, stop=1200)

        load_checkpoint(path, model, graph=g, optimizer=optimizer)
        neg.reset()
        _, ap_second = evaluate(model, g, neg, 300, start=600, stop=1200)
        assert ap_first == pytest.approx(ap_second, abs=1e-9)

    def test_multislot_mailbox_cursor_restored(self, tmp_path):
        from repro.models import APAN
        ds = get_dataset("wiki")
        g = ds.build_graph()
        ctx = tg.TContext(g)
        g.set_memory(8)
        g.set_mailbox(APAN.required_mailbox_dim(8, 172), slots=3)
        model = APAN(ctx, dim_node=172, dim_edge=172, dim_time=8, dim_embed=8,
                     dim_mem=8, num_nbrs=3, mailbox_slots=3)
        batch = tg.TBatch(g, 0, 100)
        batch.neg_nodes = np.zeros(100, dtype=np.int64)
        model(batch)
        path = str(tmp_path / "apan.npz")
        save_checkpoint(path, model, graph=g)
        cursors = g.mailbox._next_slot.copy()
        g.reset_state()
        load_checkpoint(path, model, graph=g)
        np.testing.assert_array_equal(g.mailbox._next_slot, cursors)


class TestValidation:
    def test_wrong_model_rejected(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ckpt.npz")
        save_checkpoint(path, model)
        other = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            load_checkpoint(path, other)

    def test_missing_memory_rejected(self, trained_setup, tmp_path):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "no_mem.npz")
        save_checkpoint(path, model)  # no graph passed -> no memory saved
        with pytest.raises(KeyError):
            load_checkpoint(path, model, graph=g)

    # 3 carried RNG streams: a resume from it could not be bit-exact
    @pytest.mark.parametrize("version", [99, 3])
    def test_format_version_checked(self, trained_setup, version):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "bad.ckpt")
        # a well-formed, CRC-valid container whose meta names another
        # checkpoint format: the version check is what rejects it
        write_container(path, 0, {"version": version, "stream": None},
                        checkpoint_arrays(model))
        with pytest.raises(ValueError, match=f"format version: {version}"):
            load_checkpoint(path, model)

    def test_checkpoint_arrays_contents(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        arrays = checkpoint_arrays(model, graph=g, optimizer=optimizer)
        assert any(k.startswith("model/") for k in arrays)
        assert "memory/data" in arrays and "mailbox/mail" in arrays
        assert "optim/t" in arrays


class TestContainer:
    """A checkpoint is the durable snapshot container, read by its reader."""

    def test_checkpoint_is_a_snapshot_container(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "snap-000000000000.snap")
        save_checkpoint(path, model, graph=g, stream=(1, 2))
        with open(path, "rb") as fh:
            assert fh.read(12) == b"TGLITESNP001"
        lsn, meta, arrays = read_container(path)
        assert (lsn, meta) == (0, {"version": 4, "stream": [1, 2]})
        np.testing.assert_array_equal(arrays["memory/data"], g.mem.data.data)
        # ...and the snapshot directory walker decodes it with that reader
        assert load_latest(str(tmp))[1] == meta

    def _saved(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ck.ckpt")
        save_checkpoint(path, model)
        return model, path, bytearray(open(path, "rb").read())

    @pytest.mark.parametrize("tamper, reason", [
        (lambda raw: raw[: len(raw) // 3], "truncated payload"),
        (lambda raw: raw[:10], "truncated inside the header"),
        (lambda raw: raw[:-9] + bytes([raw[-9] ^ 0x01]) + raw[-8:], "CRC32 mismatch"),
        (lambda raw: b"X" + raw[1:], "wrong magic"),
        (lambda raw: raw[:12] + (7).to_bytes(4, "little") + raw[16:],
         "unknown container version 7"),
    ], ids=["truncated", "short-header", "payload-flip", "magic", "version"])
    def test_tampered_file_is_a_value_error_naming_the_file(
        self, trained_setup, tamper, reason
    ):
        model, path, raw = self._saved(trained_setup)
        with open(path, "wb") as fh:
            fh.write(bytes(tamper(bytes(raw))))
        with pytest.raises(ValueError, match=f"ck.ckpt.*{reason}"):
            load_checkpoint(path, model)

    def test_old_npz_archive_is_rejected(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "old.npz")
        np.savez(path, **checkpoint_arrays(model))
        with pytest.raises(ValueError, match="old.npz.*wrong magic"):
            load_checkpoint(path, model)

    def test_shape_or_dtype_mismatch_names_the_key(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "ck.ckpt")
        save_checkpoint(path, model, graph=g)
        _, meta, arrays = read_container(path)
        # a (1, dim) row would broadcast into the table without complaint
        bad = dict(arrays, **{"memory/data": arrays["memory/data"][:1]})
        write_container(path, 0, meta, bad)
        with pytest.raises(ValueError, match="memory/data"):
            load_checkpoint(path, model, graph=g)
        bad = dict(arrays, **{"memory/time": arrays["memory/time"].astype(np.float32)})
        write_container(path, 0, meta, bad)
        with pytest.raises(ValueError, match="memory/time"):
            load_checkpoint(path, model, graph=g)
