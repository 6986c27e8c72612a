"""Data-movement policy tests for the model layer (pinned vs pageable)."""

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


class TestNodeKeyedGathers:
    def test_tgn_gathers_each_node_keyed_table_once_per_unique_node(
            self, cuda_ctx_host_data, monkeypatch):
        """Across one preloaded TGN forward, node features, memory and mail
        each cross to the device once, with one row per unique tail node."""
        ds, g, ctx = cuda_ctx_host_data
        model = build("tgn", ds, g, ctx, OptFlags.preload_only())
        tables = {id(g.nfeat): "nfeat", id(g.mem.data): "memory", id(g.mailbox.mail): "mail"}
        gathers, tails = [], []

        def counting(fn):
            def wrapped(self, store, idx, *args, **kwargs):
                if id(store) in tables:
                    gathers.append((tables[id(store)], len(idx)))
                    if isinstance(self, tg.TBlock):
                        tails.append(self)
                return fn(self, store, idx, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(tg.TBlock, "_gather", counting(tg.TBlock._gather))
        monkeypatch.setattr(TGN, "fetch_rows", counting(TGN.fetch_rows))
        # save_raw_msgs re-reads the *updated* memory of the batch endpoints.
        monkeypatch.setattr(model, "save_raw_msgs", lambda batch: None)
        model(make_batch(g))
        tail = tails[0]
        assert tail.next is None and all(blk is tail for blk in tails)
        num_uniq = len(tail.uniq_nodes()[0])
        assert num_uniq < tail.num_dst + tail.num_src
        assert sorted(gathers) == [("mail", num_uniq), ("memory", num_uniq), ("nfeat", num_uniq)]


class TestFetchHelpers:
    def test_fetch_rows_pins_only_host_to_device(self, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        model = build("jodie", ds, g, ctx, OptFlags.preload_only())
        runtime.transfer_stats.reset()
        out = model.fetch_rows(g.nfeat, np.array([0, 1, 2]))
        assert out.device.is_cuda
        assert runtime.transfer_stats.pinned_bytes == runtime.transfer_stats.bytes > 0

    def test_fetch_rows_same_device_is_free(self):
        ds = get_dataset("wiki")
        g = ds.build_graph(feature_device="cuda")
        ctx = tg.TContext(g, device="cuda")
        model = build("jodie", ds, g, ctx, OptFlags.preload_only())
        # memory/mailbox were placed on cpu by build(); move for this test.
        g.mem.to("cuda")
        g.mailbox.to("cuda")
        runtime.transfer_stats.reset()
        model.fetch_rows(g.nfeat, np.array([0, 1]))
        assert runtime.transfer_stats.bytes == 0

    def test_to_storage_charges_pinned_rate(self, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        model = build("jodie", ds, g, ctx, OptFlags.preload_only())
        runtime.transfer_stats.reset()
        dev_tensor = T.ones(4, 8, device="cuda")
        back = model.to_storage(dev_tensor, "cpu")
        assert back.device.is_cpu
        assert runtime.transfer_stats.pinned_bytes == dev_tensor.data.nbytes

    def test_storage_writes_pay_transfer(self, cuda_ctx_host_data):
        ds, g, ctx = cuda_ctx_host_data
        build("jodie", ds, g, ctx, OptFlags.none())
        runtime.transfer_stats.reset()
        g.mem.update(np.array([0]), T.ones(1, 8, device="cuda"), np.array([1.0]))
        assert runtime.transfer_stats.bytes == 1 * 8 * 4
        g.mailbox.store(np.array([0]),
                        T.ones(1, g.mailbox.dim, device="cuda"), np.array([1.0]))
        assert runtime.transfer_stats.bytes > 1 * 8 * 4
