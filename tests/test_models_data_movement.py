"""Data-movement policy tests for the model layer (pinned vs pageable)."""

import pathlib
import re

import numpy as np
import pytest

import repro.core as tg
from repro import tensor as T
from repro.data import get_dataset
from repro.models import APAN, JODIE, TGN, OptFlags
from repro.tensor.device import runtime


@pytest.fixture
def cuda_ctx_host_data():
    ds = get_dataset("wiki")
    g = ds.build_graph(feature_device="cpu")
    ctx = tg.TContext(g, device="cuda")
    return ds, g, ctx


def make_batch(g, size=60, start=200):
    batch = tg.TBatch(g, start, start + size)
    batch.neg_nodes = np.random.default_rng(0).integers(0, g.num_nodes, size=size)
    return batch


def build(name, ds, g, ctx, opt):
    dn, de, dm = ds.nfeat.shape[1], ds.efeat.shape[1], 8
    common = dict(dim_node=dn, dim_edge=de, dim_time=8, dim_embed=8,
                  dim_mem=dm, opt=opt)
    if name == "tgn":
        g.set_memory(dm, device="cpu")
        g.set_mailbox(TGN.required_mailbox_dim(dm, de), device="cpu")
        return TGN(ctx, num_layers=1, num_nbrs=3, **common).to("cuda")
    if name == "jodie":
        g.set_memory(dm, device="cpu")
        g.set_mailbox(JODIE.required_mailbox_dim(dm, de), device="cpu")
        return JODIE(ctx, **common).to("cuda")
    g.set_memory(dm, device="cpu")
    g.set_mailbox(APAN.required_mailbox_dim(dm, de), slots=3, device="cpu")
    return APAN(ctx, num_nbrs=3, mailbox_slots=3, **common).to("cuda")


@pytest.mark.parametrize("name", ["tgn", "jodie", "apan"])
class TestPinnedPolicy:
    def test_preload_routes_through_pinned(self, name, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        model = build(name, ds, g, ctx, OptFlags.preload_only())
        runtime.transfer_stats.reset()
        model(make_batch(g))
        stats = runtime.transfer_stats
        assert stats.pinned_bytes > 0
        # The bulk of the traffic (gathers + write-backs) is pinned.
        assert stats.pinned_bytes / stats.bytes > 0.5

    def test_no_preload_stays_pageable(self, name, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        model = build(name, ds, g, ctx, OptFlags.none())
        runtime.transfer_stats.reset()
        model(make_batch(g))
        stats = runtime.transfer_stats
        assert stats.bytes > 0
        assert stats.pinned_bytes == 0


@pytest.fixture
def gathers(monkeypatch):
    """Every ``TBlock._gather`` of the test, as ``(block, store, rows)``."""
    seen, gather = [], tg.TBlock._gather

    def counting(self, store, idx, *args, **kwargs):
        seen.append((self, store, len(idx)))
        return gather(self, store, idx, *args, **kwargs)

    monkeypatch.setattr(tg.TBlock, "_gather", counting)
    return seen


class TestNodeKeyedGathers:
    @pytest.mark.parametrize("name", ["tgn", "jodie", "apan"])
    def test_node_keyed_tables_cross_once(
            self, name, cuda_ctx_host_data, gathers, monkeypatch):
        """Across one preloaded forward, node features, memory and mail each
        cross to the device once, with one row per unique node of the block
        the model reads them from (TGN: the tail; JODIE / APAN: the head)."""
        ds, g, ctx = cuda_ctx_host_data
        model = build(name, ds, g, ctx, OptFlags.preload_only())
        tables = {id(g.nfeat): "nfeat", id(g.mem.data): "memory", id(g.mailbox.mail): "mail"}
        # Mail building re-reads the *updated* memory of the batch endpoints.
        monkeypatch.setattr(model, "raw_msgs", lambda blk: T.zeros(
            blk.num_dst, g.mailbox.dim, device="cuda"))
        model(make_batch(g))
        keyed = [(blk, tables[id(store)], n) for blk, store, n in gathers if id(store) in tables]
        blk = keyed[0][0]
        assert blk.next is None and all(b is blk for b, _, _ in keyed)
        num_uniq = len(blk.uniq_nodes()[0])
        assert num_uniq < blk.num_dst + blk.num_src
        assert sorted((table, n) for _, table, n in keyed) == [
            ("mail", num_uniq), ("memory", num_uniq), ("nfeat", num_uniq)]

    def test_raw_msgs_gather_memory_once_per_endpoint(self, cuda_ctx_host_data, gathers):
        """Own and peer memory of a batch's raw messages come from one gather
        over the unique endpoints, edge features from one over the unique edges."""
        ds, g, ctx = cuda_ctx_host_data
        model = build("tgn", ds, g, ctx, OptFlags.preload_only())
        batch = make_batch(g)
        mail = model.raw_msgs(batch.block_adj(ctx))
        endpoints = len(np.unique(np.concatenate([batch.src, batch.dst])))
        assert [(id(store), n) for _, store, n in gathers] == [
            (id(g.mem.data), endpoints), (id(g.efeat), len(batch))]
        assert mail.shape == (2 * len(batch), g.mailbox.dim) and mail.device.is_cuda


class TestFetchHelpers:
    def test_gather_pins_only_host_to_device(self, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        blk = make_batch(g).block(ctx)
        runtime.transfer_stats.reset()
        out = blk._gather(g.nfeat, np.array([0, 1, 2]), pin=True)
        assert out.device.is_cuda
        assert runtime.transfer_stats.pinned_bytes == runtime.transfer_stats.bytes > 0

    def test_gather_same_device_is_free(self):
        ds = get_dataset("wiki")
        g = ds.build_graph(feature_device="cuda")
        blk = make_batch(g).block(tg.TContext(g, device="cuda"))
        runtime.transfer_stats.reset()
        blk._gather(g.nfeat, np.array([0, 1]), pin=True)
        assert runtime.transfer_stats.bytes == 0

    def test_write_back_charges_pinned_rate(self, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        blk = make_batch(g).block(ctx)
        runtime.transfer_stats.reset()
        dev_tensor = T.ones(4, 8, device="cuda")
        back = blk.write_back(dev_tensor, "cpu", pin=True)
        assert back.device.is_cpu
        assert runtime.transfer_stats.pinned_bytes == dev_tensor.data.nbytes
        blk.write_back(dev_tensor, "cpu")
        assert runtime.transfer_stats.pinned_bytes == dev_tensor.data.nbytes
        assert runtime.transfer_stats.bytes == 2 * dev_tensor.data.nbytes

    def test_storage_writes_pay_transfer(self, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        build("jodie", ds, g, ctx, OptFlags.none())
        runtime.transfer_stats.reset()
        g.mem.update(np.array([0]), T.ones(1, 8, device="cuda"), np.array([1.0]))
        assert runtime.transfer_stats.bytes == 1 * 8 * 4
        g.mailbox.store(np.array([0]),
                        T.ones(1, g.mailbox.dim, device="cuda"), np.array([1.0]))
        assert runtime.transfer_stats.bytes > 1 * 8 * 4


def test_models_read_graph_tables_through_the_block_only():
    """Guard: one gather path.  The deleted model-level helpers stay deleted
    (``Tensor.pin_memory()`` and the serving engines' private ``_fetch_rows``
    are other things), and nothing under ``models/`` subscripts a graph-level
    table: ``TBlock`` accessors are the only readers."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    deleted = re.compile(r"\bfetch_rows\b|\bpin_memory\b(?!\()")
    raw_read = re.compile(
        r"(mem\.data|mem\.time|mailbox\.mail|mailbox\.time|\bg\.nfeat|\bg\.efeat)(\.data)?\[")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        if deleted.search(text):
            offenders.append(f"{path.relative_to(src)}: {deleted.search(text).group()}")
        if path.is_relative_to(src / "models") and raw_read.search(text):
            offenders.append(f"{path.relative_to(src)}: {raw_read.search(text).group()}")
    assert offenders == []
