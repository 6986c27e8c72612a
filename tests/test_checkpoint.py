"""Tests for full-training-state checkpointing."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.bench import evaluate, train_epoch
from repro.bench.checkpoint import (
    _crc32_of,
    checkpoint_arrays,
    load_checkpoint,
    save_checkpoint,
)
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

    def test_format_version_checked(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        path = str(tmp / "bad.npz")
        arrays = checkpoint_arrays(model)
        arrays["meta/format_version"] = np.array([99])
        # re-seal the edited archive so the CRC check passes and the
        # version check is what rejects it (version 1 included)
        arrays["meta/crc32"] = np.array([_crc32_of(arrays)], dtype=np.uint64)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format version: 99"):
            load_checkpoint(path, model)

    def test_checkpoint_arrays_contents(self, trained_setup):
        ds, g, model, optimizer, neg, tmp = trained_setup
        arrays = checkpoint_arrays(model, graph=g, optimizer=optimizer)
        assert any(k.startswith("model/") for k in arrays)
        assert "memory/data" in arrays and "mailbox/mail" in arrays
        assert "optim/t" in arrays
