"""Per-operation cost breakdown of a TGAT training epoch (Figure 7).

Re-drives the TGAT forward/backward pipeline step by step — using the
model's own sampler, operators, and layers — so each stage can be timed
under its own section: batch preparation, temporal sampling, data loading,
time encoding (zero-delta and neighbor-delta separately), attention,
prediction/loss, backward, and the optimizer step.

The TGL variant mirrors its structural differences: sampling *includes*
the fused delta computation (so TGL has no separate delta step), and data
loading is the eager pageable MFG gather.
"""

from __future__ import annotations

from typing import Dict

from ..core import iter_batches
from ..core import op as tgop
from ..store import ops as store_ops
from ..models.attention import TemporalAttnLayer
from ..models.tgat import TGAT
from ..nn import link_prediction_loss
from ..tgl.models.tgat import TGLTGAT
from .experiments import Experiment
from .timing import Breakdown
from .trainer import _mark_time_encoders_updated

__all__ = ["run_tgat_breakdown"]


def _timed_time_encoders(breakdown: Breakdown):
    """Context patching TemporalAttnLayer's time-feature helpers."""
    orig_zero = TemporalAttnLayer._zero_time
    orig_nbr = TemporalAttnLayer._nbr_time

    def zero(self, n):
        with breakdown.section("time_zero"):
            return orig_zero(self, n)

    def nbr(self, deltas):
        with breakdown.section("time_nbrs"):
            return orig_nbr(self, deltas)

    class _Patch:
        def __enter__(self):
            TemporalAttnLayer._zero_time = zero
            TemporalAttnLayer._nbr_time = nbr

        def __exit__(self, *exc):
            TemporalAttnLayer._zero_time = orig_zero
            TemporalAttnLayer._nbr_time = orig_nbr

    return _Patch()


def _loss(model, embeds, batch):
    pos, neg = model.edge_predictor.score_batch(embeds, len(batch))
    return link_prediction_loss(pos, neg)


def _tglite_epoch(exp: Experiment, stop: int, bd: Breakdown) -> None:
    model: TGAT = exp.model
    cfg = exp.cfg
    exp.neg_sampler.reset()
    with _timed_time_encoders(bd):
        for batch in iter_batches(exp.g, cfg.batch_size, stop=stop):
            with bd.section("batch_prep"):
                batch.neg_nodes = exp.neg_sampler.sample(len(batch))
                exp.optimizer.zero_grad()
                head = batch.block(exp.ctx)
            tail = head
            for i in range(model.num_layers):
                if i > 0:
                    with bd.section("batch_prep"):
                        tail = tail.next_block()
                with bd.section("batch_prep"):
                    if model.opt.dedup:
                        tail = tgop.dedup(tail)
                    if model.opt.cache:
                        tail = store_ops.memoize(exp.ctx, tail)
                with bd.section("sample"):
                    tail = model.sampler.sample(tail)
            with bd.section("data_load"):
                if model.opt.preload:
                    store_ops.preload(head)
                tail.dstdata["h"] = tail.dstfeat()
                tail.srcdata["h"] = tail.uniq_srcfeat()
            with bd.section("attention"):
                embeds = tgop.aggregate(head, list(model.attn_layers), key="h")
            with bd.section("pred_loss"):
                loss = _loss(model, embeds, batch)
            with bd.section("backward"):
                loss.backward()
            with bd.section("opt_step"):
                exp.optimizer.step()
                _mark_time_encoders_updated(model)


def _tgl_epoch(exp: Experiment, stop: int, bd: Breakdown) -> None:
    model: TGLTGAT = exp.model
    cfg = exp.cfg
    exp.neg_sampler.reset()
    for batch in iter_batches(exp.g, cfg.batch_size, stop=stop):
        with bd.section("batch_prep"):
            batch.neg_nodes = exp.neg_sampler.sample(len(batch))
            exp.optimizer.zero_grad()
            nodes, times = batch.nodes(), batch.times()
        with bd.section("sample"):  # fused: deltas computed here (MFG ctor)
            mfgs = model.sampler.sample(model.device, nodes, times, model.num_layers)
        with bd.section("data_load"):
            mfgs[0].load("h", exp.g.nfeat, which="all")
            if exp.g.efeat is not None:
                for mfg in mfgs:
                    mfg.load_edges("f", exp.g.efeat)
        with bd.section("attention"):  # includes in-layer time encoding
            h = None
            for i, mfg in enumerate(mfgs):
                h = model.layers[i](mfg)
                if i + 1 < len(mfgs):
                    mfgs[i + 1].srcdata["h"] = h
        with bd.section("pred_loss"):
            loss = _loss(model, h, batch)
        with bd.section("backward"):
            loss.backward()
        with bd.section("opt_step"):
            exp.optimizer.step()
            _mark_time_encoders_updated(model)


def run_tgat_breakdown(cfg, slice_edges: int = 4000) -> Dict[str, float]:
    """Run one instrumented TGAT epoch-slice; returns seconds per stage.

    For TGLite settings, the ``attention`` stage is reported *exclusive* of
    the nested time-encoding sections (which are listed separately), while
    TGL's fused design folds neighbor-delta work into ``sample``/
    ``attention`` — reproducing the structural difference §5.2.3 discusses.
    """
    if cfg.model != "tgat":
        raise ValueError("the Figure 7 breakdown is defined for TGAT")
    exp = Experiment(cfg)
    try:
        bd = Breakdown()
        stop = min(exp.train_end, slice_edges)
        if exp.ctx is not None:
            exp.ctx.reset_stats()
        if cfg.framework == "tgl":
            _tgl_epoch(exp, stop, bd)
        else:
            _tglite_epoch(exp, stop, bd)
        if exp.ctx is not None:
            # Kernel-level timings recorded by the vectorized kernel layer
            # (repro.core.kernels); nested inside the coarse stages above.
            bd.merge({k: v for k, v in exp.ctx.stats().counters.items()
                      if k.startswith("kernel:")})
        totals = bd.totals()
        if "attention" in totals:
            nested = totals.get("time_zero", 0.0) + totals.get("time_nbrs", 0.0)
            totals["attention"] = max(totals["attention"] - nested, 0.0)
        return totals
    finally:
        exp.close()
