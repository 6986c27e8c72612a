"""Tests for Figure 7's breakdown — the real training step under a span
recording — and experiment flag overrides."""

import pytest

from repro.bench.experiments import Experiment, ExperimentConfig
from repro.bench.trainer import train_epoch
from repro.models import OptFlags
from repro.spans import record

STAGES = ("batch_prep", "sample", "data_load", "time_zero", "time_nbrs",
          "attention", "pred_loss", "backward", "opt_step")


def small_cfg(framework, **kw):
    return ExperimentConfig(
        dataset="wiki", model="tgat", framework=framework, placement="gpu",
        batch_size=400, num_nbrs=3, dim_time=8, dim_embed=8, **kw,
    )


def recorded_epoch(framework):
    """``(train_epoch seconds, recording)`` of one 800-edge TGAT epoch."""
    exp = Experiment(small_cfg(framework))
    try:
        with record() as rec:
            seconds, _ = train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler,
                                     exp.cfg.batch_size, stop=800)
    finally:
        exp.close()
    return seconds, rec


class TestBreakdownRunner:
    def test_tglite_stages_present(self):
        seconds, rec = recorded_epoch("tglite")
        totals = rec.seconds(STAGES)
        for stage in STAGES:
            assert stage in totals, stage
            assert totals[stage] >= 0
        # top-level stage spans are disjoint slices of the epoch
        assert sum(totals.values()) <= seconds

    def test_tgl_has_no_separate_time_stage(self):
        _, rec = recorded_epoch("tgl")
        totals = rec.seconds(STAGES)
        assert "time_nbrs" not in totals
        assert "time_zero" not in totals
        assert totals["attention"] > 0

    def test_attention_reported_exclusive_of_time_encoding(self):
        _, rec = recorded_epoch("tglite")
        inclusive, stages = rec.totals(), rec.seconds(STAGES)
        assert stages["attention"] == pytest.approx(
            inclusive["attention"] - inclusive["time_zero"] - inclusive["time_nbrs"])
        assert stages["batch_prep"] == pytest.approx(
            inclusive["batch_prep"] - inclusive["sample"])


class TestOptFlagOverride:
    def test_explicit_flags_override_framework_preset(self):
        flags = OptFlags(dedup=True, cache=False, time_precompute=False, preload=False)
        cfg = small_cfg("tglite", opt_flags=flags)
        exp = Experiment(cfg)
        try:
            assert exp.model.opt is flags
        finally:
            exp.close()

    def test_presets_used_without_override(self):
        exp = Experiment(small_cfg("tglite+opt"))
        try:
            assert exp.model.opt.dedup and exp.model.opt.cache
        finally:
            exp.close()
        exp = Experiment(small_cfg("tglite"))
        try:
            assert exp.model.opt.preload and not exp.model.opt.dedup
        finally:
            exp.close()
