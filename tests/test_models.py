"""Tests for the TGLite-based model implementations."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.data import NegativeSampler, get_dataset
from repro.models import APAN, JODIE, TGAT, TGN, EdgePredictor, OptFlags, TemporalAttnLayer
from repro.bench import train_epoch, evaluate
from repro.bench.trainer import link_prediction_loss

from reference import per_row_compute_embeddings, per_row_update_memory


@pytest.fixture(scope="module")
def wiki():
    return get_dataset("wiki")


def make_graph(ds, device=None):
    return ds.build_graph(feature_device=device)


def make_batch(g, size=50, start=100):
    batch = tg.TBatch(g, start, start + size)
    rng = np.random.default_rng(0)
    batch.neg_nodes = rng.integers(0, g.num_nodes, size=size)
    return batch


class TestOptFlags:
    def test_presets(self):
        none = OptFlags.none()
        assert not (none.dedup or none.cache or none.preload or none.time_precompute)
        pre = OptFlags.preload_only()
        assert pre.preload and not pre.dedup
        full = OptFlags.all()
        assert full.dedup and full.cache and full.time_precompute and full.preload


class TestEdgePredictor:
    def test_forward_shape(self):
        pred = EdgePredictor(8)
        out = pred(T.randn(5, 8), T.randn(5, 8))
        assert out.shape == (5,)

    def test_score_batch_split(self):
        pred = EdgePredictor(4)
        embeds = T.randn(9, 4)
        pos, neg = pred.score_batch(embeds, 3)
        assert pos.shape == (3,) and neg.shape == (3,)
        # pos scores pair rows [0:3] with [3:6]; negatives with [6:9].
        manual_pos = pred(embeds[:3], embeds[3:6])
        np.testing.assert_allclose(pos.numpy(), manual_pos.numpy(), rtol=1e-5)


class TestTemporalAttnLayer:
    def _block_with_h(self, ctx, g):
        blk = tg.TBatch(g, 100, 120).block(ctx)
        tg.TSampler(5).sample(blk)
        blk.dstdata["h"] = blk.dstfeat()
        blk.srcdata["h"] = blk.srcfeat()
        return blk

    def test_output_shape(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        layer = TemporalAttnLayer(ctx, 2, dim_node=172, dim_edge=172, dim_time=16, dim_out=16)
        blk = self._block_with_h(ctx, g)
        assert layer(blk).shape == (blk.num_dst, 16)

    def test_gradients_reach_all_weights(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        layer = TemporalAttnLayer(ctx, 2, dim_node=172, dim_edge=172, dim_time=16, dim_out=16)
        blk = self._block_with_h(ctx, g)
        layer(blk).sum().backward()
        for name, p in layer.named_parameters():
            assert p.grad is not None, name

    def test_neighborless_block_still_works(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        layer = TemporalAttnLayer(ctx, 2, dim_node=172, dim_edge=172, dim_time=16, dim_out=16)
        blk = tg.TBlock(ctx, 0, np.array([0, 1]), np.array([0.0, 0.0]))
        blk.set_nbrs(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))
        blk.dstdata["h"] = blk.dstfeat()
        assert layer(blk).shape == (2, 16)

    def test_dim_head_divisibility_check(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        with pytest.raises(ValueError):
            TemporalAttnLayer(ctx, 3, dim_node=4, dim_edge=4, dim_time=4, dim_out=16)


def build_model(name, ctx, g, ds, opt=None, device=None, **kw):
    """*device* places memory and mailbox (default: the host)."""
    opt = opt if opt is not None else OptFlags.none()
    dn, de, dm = ds.nfeat.shape[1], ds.efeat.shape[1], 16
    common = dict(dim_node=dn, dim_edge=de, dim_time=16, dim_embed=16, opt=opt)
    if name == "tgat":
        return TGAT(ctx, num_layers=2, num_nbrs=5, **common, **kw)
    if name == "tgn":
        g.set_memory(dm, device=device)
        g.set_mailbox(TGN.required_mailbox_dim(dm, de), device=device)
        return TGN(ctx, dim_mem=dm, num_layers=2, num_nbrs=5, **common, **kw)
    if name == "jodie":
        g.set_memory(dm, device=device)
        g.set_mailbox(JODIE.required_mailbox_dim(dm, de), device=device)
        return JODIE(ctx, dim_mem=dm, **common, **kw)
    g.set_memory(dm, device=device)
    g.set_mailbox(APAN.required_mailbox_dim(dm, de), slots=4, device=device)
    return APAN(ctx, dim_mem=dm, num_nbrs=5, mailbox_slots=4, **common, **kw)


@pytest.mark.parametrize("name", ["tgat", "tgn", "jodie", "apan"])
class TestAllModels:
    def test_forward_shapes(self, name, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model(name, ctx, g, wiki)
        pos, neg = model(make_batch(g))
        assert pos.shape == (50,) and neg.shape == (50,)

    def test_forward_requires_negatives(self, name, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model(name, ctx, g, wiki)
        with pytest.raises(ValueError):
            model(tg.TBatch(g, 0, 10))

    def test_training_reduces_loss(self, name, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model(name, ctx, g, wiki)
        opt = nn.Adam(model.parameters(), lr=1e-2)
        neg = NegativeSampler.for_dataset(wiki)
        _, loss0 = train_epoch(model, g, opt, neg, 200, stop=1000)
        model.reset_state()
        _, loss1 = train_epoch(model, g, opt, neg, 200, stop=1000)
        assert loss1 < loss0

    def test_eval_mode_does_not_build_grads(self, name, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model(name, ctx, g, wiki)
        model.eval()
        with T.no_grad():
            pos, _ = model(make_batch(g))
        assert pos.is_leaf

    def test_reset_state_clears_everything(self, name, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model(name, ctx, g, wiki)
        model(make_batch(g))
        model.reset_state()
        if g.mem is not None:
            assert g.mem.data.data.sum() == 0
        if g.mailbox is not None:
            assert g.mailbox.mail.data.sum() == 0


def eval_scores(name, ds, flags, sampling="recent"):
    """Eval-mode scores of a fixed-seed model on batches at 100, 100 and
    150 (the repeat exercises the cache)."""
    T.manual_seed(99)
    g = make_graph(ds)
    model = build_model(name, tg.TContext(g), g, ds, opt=flags, dropout=0.0,
                        sampling=sampling)
    model.eval()
    scores = []
    with T.no_grad():
        for start in (100, 100, 150):
            pos, neg = model(make_batch(g, size=40, start=start))
            scores.append(np.concatenate([pos.numpy(), neg.numpy()]))
    return np.concatenate(scores)


class TestOptimizationEquivalence:
    """The paper's central semantic claim: optimization operators are
    semantic-preserving transformations (identical outputs in eval mode)."""

    @pytest.mark.parametrize("name", ["tgat", "tgn"])
    def test_opt_flags_do_not_change_eval_outputs(self, name, wiki):
        np.testing.assert_allclose(eval_scores(name, wiki, OptFlags.none()),
                                   eval_scores(name, wiki, OptFlags.all()), atol=1e-4)

    @pytest.mark.parametrize("flag", ["dedup", "cache", "time_precompute", "preload"])
    @pytest.mark.parametrize("name", ["tgat", "tgn"])
    def test_each_flag_is_as_exact_under_uniform_as_under_recent(self, name, flag, wiki):
        """A uniform draw is keyed by its destination's (node, time), not by
        how many rows were sampled before it, so dedup and cache (which
        change that count) move no eval score that recent leaves alone."""
        gap = {}
        for sampling in ("recent", "uniform"):
            plain = eval_scores(name, wiki, OptFlags.none(), sampling)
            flagged = eval_scores(name, wiki, OptFlags(**{flag: True}), sampling)
            gap[sampling] = np.abs(flagged - plain).max()
        assert gap["uniform"] <= gap["recent"]

    def test_dedup_training_equivalence_tgat(self, wiki):
        # One optimizer step with and without dedup must produce the same
        # parameter updates (gradients are re-expanded exactly).
        grads = {}
        for label, flags in [("plain", OptFlags.none()), ("dedup", OptFlags(dedup=True))]:
            T.manual_seed(11)
            g = make_graph(wiki)
            ctx = tg.TContext(g)
            model = build_model("tgat", ctx, g, wiki, opt=flags, dropout=0.0)
            pos, neg = model(make_batch(g, size=40))
            (pos.sum() + neg.sum()).backward()
            grads[label] = {n: p.grad.copy() for n, p in model.named_parameters()}
        for key in grads["plain"]:
            a, b = grads["plain"][key], grads["dedup"][key]
            # Relative comparison: time-encoder frequency gradients scale
            # with time deltas (~1e6), so accumulation-order float32 noise
            # is proportionally large in absolute terms.
            scale = max(np.abs(a).max(), 1.0)
            assert np.abs(a - b).max() / scale < 1e-3, f"gradient mismatch for {key}"


def model_pair(name, wiki, device=None, **kw):
    """(per-node model, per-row reference model) on twin graphs, same weights.
    TGN and JODIE get build_model's 1-slot mailbox, APAN a 3-slot ring.
    ``device="cuda"`` is the all-on-GPU placement: features, state and
    compute on the simulated device."""
    pair = []
    for per_row in (False, True):
        T.manual_seed(5)
        g = make_graph(wiki, device)
        model = build_model(name, tg.TContext(g, device=device), g, wiki,
                            device=device, **kw)
        model.to(device)
        if name == "apan":
            g.set_mailbox(g.mailbox.dim, slots=3, device=device)
        if per_row:
            model.compute_embeddings = lambda batch, m=model: per_row_compute_embeddings(m, batch)
        pair.append((model, g))
    return pair


class TestTGNPerNodeMemory:
    """TGN reads and updates node-keyed state once per unique node; the
    per-row reference (tests/reference.py) recomputes it for every row."""

    def _pair(self, wiki, device=None):
        return model_pair("tgn", wiki, device)

    @pytest.mark.parametrize("device", ["cpu", "cuda"])
    def test_inference_and_state_bit_identical(self, wiki, device):
        results = []
        for model, g in self._pair(wiki, device):
            model.eval()
            with T.no_grad():
                embeds, logits = [], []
                for start in (100, 160, 220):  # later batches consume earlier mail
                    embeds.append(model.compute_embeddings(make_batch(g, 60, start)).numpy())
                    pos, neg = model(make_batch(g, 60, start + 300))
                    logits += [pos.numpy(), neg.numpy()]
            results.append((np.concatenate(embeds), np.concatenate(logits),
                            g.mem.state_digest(), g.mailbox.state_digest()))
        (emb, logit, mem, mail), (ref_emb, ref_logit, ref_mem, ref_mail) = results
        assert np.abs(emb).sum() > 0 and (emb == ref_emb).all()
        assert (logit == ref_logit).all()
        assert mem == ref_mem and mail == ref_mail

    def test_first_step_loss_equal_and_gradients_close(self, wiki):
        losses, grads = [], []
        for model, g in self._pair(wiki):
            model.train()
            model(make_batch(g, 60, 100))  # deliver mail so the GRU sees messages
            model.zero_grad()
            T.manual_seed(8)  # same dropout draws on both sides
            pos, neg = model(make_batch(g, 60, 160))
            loss = link_prediction_loss(pos, neg)
            loss.backward()
            losses.append(loss.item())
            grads.append({n: p.grad.copy() for n, p in model.named_parameters()})
        assert losses[0] == losses[1]
        assert grads[0].keys() == grads[1].keys()
        for name, ref in grads[1].items():
            assert np.abs(grads[0][name] - ref).max() <= 1e-4 * np.abs(ref).max(), name

    def test_block_of_unique_nodes_takes_the_same_path(self, wiki):
        rows = []
        for (model, g), update in zip(self._pair(wiki), (TGN.update_memory, per_row_update_memory)):
            rng = np.random.default_rng(3)
            g.mailbox.mail.data[...] = rng.standard_normal(g.mailbox.mail.shape)
            g.mailbox.time[...] = 5.0
            nodes = rng.permutation(g.num_nodes)[:40]
            blk = tg.TBlock(model.ctx, 0, nodes, np.full(40, 9.0))
            with T.no_grad():
                mem = update(model, blk).numpy()
            uniq, inverse = blk.uniq_nodes()
            assert len(uniq) == blk.num_dst
            rows.append((mem[inverse] if update is TGN.update_memory else mem, g.mem.state_digest()))
        assert (rows[0][0] == rows[1][0]).all() and rows[0][1] == rows[1][1]


OPT_FLAGS = {"none": OptFlags.none, "preload_only": OptFlags.preload_only, "all": OptFlags.all}


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("flags", list(OPT_FLAGS))
@pytest.mark.parametrize("name", ["tgn", "jodie", "apan"])
def test_memory_models_equal_their_per_row_reference(name, flags, training, wiki):
    """Five consecutive batches (later ones consume earlier mail): embeddings
    and the stored memory / mailbox are bit-identical to the per-row forward
    of tests/reference.py, under every operator setting.  TGN and JODIE run
    on a 1-slot mailbox, APAN on a 3-slot ring."""
    results = []
    kw = dict(dropout=0.0) if name == "tgn" else {}
    for model, g in model_pair(name, wiki, opt=OPT_FLAGS[flags](), **kw):
        model.train(training)
        embeds = [model.compute_embeddings(make_batch(g, 60, start)).numpy()
                  for start in range(100, 400, 60)]
        results.append((np.concatenate(embeds), g.mem.state_digest(), g.mailbox.state_digest()))
    (emb, mem, mail), (ref_emb, ref_mem, ref_mail) = results
    assert np.abs(emb).sum() > 0 and (emb == ref_emb).all()
    assert mem == ref_mem and mail == ref_mail


@pytest.mark.parametrize("name", ["jodie", "apan"])
def test_first_step_gradients_close_to_the_per_row_reference(name, wiki):
    """Backward through the inverse expansion sums per-row gradients per node."""
    losses, grads = [], []
    for model, g in model_pair(name, wiki):
        model(make_batch(g, 60, 100))  # deliver mail so the cell sees messages
        model.zero_grad()
        loss = link_prediction_loss(*model(make_batch(g, 60, 160)))
        loss.backward()
        losses.append(loss.item())
        grads.append({n: p.grad.copy() for n, p in model.named_parameters()})
    assert losses[0] == losses[1]
    for key, ref in grads[1].items():
        assert np.abs(grads[0][key] - ref).max() <= 1e-4 * np.abs(ref).max(), key


class TestModelSpecifics:
    def test_tgat_chain_length_matches_layers(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model("tgat", ctx, g, wiki)
        assert len(model.attn_layers) == 2

    def test_tgn_mailbox_dim_helper(self):
        assert TGN.required_mailbox_dim(100, 172) == 372
        assert JODIE.required_mailbox_dim(100, 172) == 272
        assert APAN.required_mailbox_dim(100, 172) == 372

    def test_tgn_memory_updates_after_batch(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model("tgn", ctx, g, wiki)
        batch = make_batch(g)
        model(batch)
        # Mailbox must now hold messages for the batch's endpoints.
        endpoints = np.unique(np.concatenate([batch.src, batch.dst]))
        assert np.abs(g.mailbox.mail.data[endpoints]).sum() > 0

    def test_jodie_memory_freshness_guard(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model("jodie", ctx, g, wiki)
        batch = make_batch(g)
        # First pass delivers mail; second pass consumes it (memory moves).
        model(batch)
        model(batch)
        snapshot = g.mem.data.data.copy()
        # Third pass: every node's mail_ts <= mem_ts now, so the freshness
        # guard must prevent re-applying the same messages.
        model(batch)
        np.testing.assert_allclose(g.mem.data.data, snapshot, atol=1e-6)

    def test_apan_delivers_mail_to_neighbors(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model("apan", ctx, g, wiki)
        batch = make_batch(g)
        model(batch)
        assert np.abs(g.mailbox.mail.data).sum() > 0

    def test_apan_delivery_times_are_float64_means(self, wiki):
        """A mail is delivered at the mean time of the events that sent it,
        never later than the newest of them (float32 rounds wiki's last
        timestamps by up to 0.12)."""
        g = make_graph(wiki)
        model = build_model("apan", tg.TContext(g), g, wiki)
        pushed, send = [], model.send_mails
        model.send_mails = lambda blk: (pushed.append(blk), send(blk))
        batch = make_batch(g, start=g.num_edges - 50)
        model(batch)
        (blk,) = pushed
        sent_at = blk.dsttimes[blk.dstindex]
        receivers = np.unique(blk.srcnodes)
        # The mailbox was empty, so each receiver's one mail sits in slot 0.
        want = [sum(sent_at[blk.srcnodes == node].tolist()) / (blk.srcnodes == node).sum()
                for node in receivers]
        assert (g.mailbox.time[receivers, 0] == want).all()
        assert 0 < g.mailbox.time.max() <= batch.ts.max()

    def test_ap_improves_over_random(self, wiki):
        g = make_graph(wiki)
        ctx = tg.TContext(g)
        model = build_model("tgat", ctx, g, wiki)
        opt = nn.Adam(model.parameters(), lr=1e-3)
        neg = NegativeSampler.for_dataset(wiki)
        train_end, val_end, _ = wiki.splits()
        for _ in range(2):
            model.reset_state()
            train_epoch(model, g, opt, neg, 300, stop=train_end)
        _, ap = evaluate(model, g, neg, 300, start=train_end, stop=val_end)
        assert ap > 0.6  # random scores ~0.5
