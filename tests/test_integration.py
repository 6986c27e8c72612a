"""Cross-module integration tests: full pipelines, placement modes, OOM."""

import numpy as np
import pytest

import repro.core as tg
from repro import nn
from repro import tensor as T
from repro.bench import evaluate, train, train_epoch
from repro.bench.experiments import Experiment, ExperimentConfig
from repro.data import NegativeSampler, get_dataset
from repro.models import TGAT, TGN, OptFlags
from repro.tensor import DeviceOutOfMemoryError
from repro.tensor.device import runtime


class TestEndToEndPipelines:
    @pytest.mark.parametrize("model", ["tgat", "tgn", "jodie", "apan"])
    @pytest.mark.parametrize("framework", ["tgl", "tglite+opt"])
    def test_full_train_and_inference(self, model, framework):
        cfg = ExperimentConfig(
            dataset="wiki", model=model, framework=framework, placement="gpu",
            epochs=1, batch_size=500, num_nbrs=3,
            dim_time=8, dim_embed=8, dim_mem=8, mailbox_slots=3,
        )
        exp = Experiment(cfg)
        try:
            res = exp.run_training()
            assert np.isfinite(res.epochs[0].train_loss)
            seconds, ap = exp.run_test_inference()
            assert 0 <= ap <= 1
        finally:
            exp.close()

    def test_cpu2gpu_transfers_happen_and_gpu_mode_does_not(self):
        for placement, expect_transfers in (("cpu2gpu", True), ("gpu", False)):
            cfg = ExperimentConfig(
                dataset="wiki", model="tgat", framework="tglite",
                placement=placement, epochs=1, batch_size=1000, num_nbrs=3,
                dim_time=8, dim_embed=8,
            )
            exp = Experiment(cfg)
            try:
                runtime.transfer_stats.reset()
                train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler,
                            cfg.batch_size, stop=1000)
                moved = runtime.transfer_stats.bytes
                if expect_transfers:
                    assert moved > 0
                else:
                    assert moved == 0
            finally:
                exp.close()

    def test_tglite_uses_pinned_path_tgl_does_not(self):
        for framework, expect_pinned in (("tglite", True), ("tgl", False)):
            cfg = ExperimentConfig(
                dataset="wiki", model="tgat", framework=framework,
                placement="cpu2gpu", epochs=1, batch_size=1000, num_nbrs=3,
                dim_time=8, dim_embed=8,
            )
            exp = Experiment(cfg)
            try:
                runtime.transfer_stats.reset()
                train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler,
                            cfg.batch_size, stop=1000)
                pinned = runtime.transfer_stats.pinned_bytes
                assert (pinned > 0) == expect_pinned
            finally:
                exp.close()

    def test_dedup_reduces_computed_rows(self):
        """The optimization operators must actually shrink the work."""
        ds = get_dataset("lastfm")  # heaviest repetition
        rows = {}
        for label, flags in (("plain", OptFlags.none()), ("opt", OptFlags(dedup=True))):
            g = ds.build_graph()
            ctx = tg.TContext(g)
            model = TGAT(ctx, dim_node=128, dim_edge=128, dim_time=8, dim_embed=8,
                         num_layers=2, num_nbrs=5, opt=flags)
            batch = tg.TBatch.range(g, 2000, 2400)
            batch.neg_nodes = NegativeSampler.for_dataset(ds).sample(400)
            counted = []
            original = model.sampler.sample

            def counting_sample(blk, _orig=original, _counted=counted):
                _counted.append(blk.num_dst)
                return _orig(blk)

            model.sampler.sample = counting_sample
            model(batch)
            rows[label] = sum(counted)
        assert rows["opt"] < rows["plain"] * 0.7


class TestOOMScenario:
    """Reproduces the Table 7 phenomenon: under a device-memory cap, the
    eager TGL pipeline exhausts simulated GPU memory while TGLite+opt
    completes the same workload."""

    def _run(self, framework, capacity):
        cfg = ExperimentConfig(
            dataset="gdelt", model="tgat", framework=framework,
            placement="cpu2gpu", epochs=1, batch_size=2000, num_nbrs=8,
            dim_time=16, dim_embed=16, device_capacity=capacity,
        )
        exp = Experiment(cfg)
        try:
            batch = tg.TBatch.range(exp.g, 20000, 22000)
            batch.neg_nodes = exp.neg_sampler.sample(2000)
            pos, neg = exp.model(batch)
            loss = nn.bce_with_logits(
                pos, T.ones(len(batch), device=pos.device)
            )
            loss.backward()
        finally:
            exp.close()

    def test_tgl_ooms_where_tglite_fits(self):
        # Measured peaks for this workload: TGL ~3.3 GB, TGLite+opt ~0.8 GB.
        capacity = 1536 * 1024 * 1024
        with pytest.raises(DeviceOutOfMemoryError):
            self._run("tgl", capacity)
        self._run("tglite+opt", capacity)  # must not raise


class TestAccuracyParity:
    def test_frameworks_reach_similar_ap(self):
        """§5.2: TGLite implementations achieve similar accuracy to TGL."""
        aps = {}
        for framework in ("tgl", "tglite+opt"):
            cfg = ExperimentConfig(
                dataset="wiki", model="tgat", framework=framework,
                placement="gpu", epochs=2, batch_size=300,
                dim_time=16, dim_embed=16, num_nbrs=5,
            )
            exp = Experiment(cfg)
            try:
                res = exp.run_training()
                aps[framework] = res.best_ap
            finally:
                exp.close()
        assert abs(aps["tgl"] - aps["tglite+opt"]) < 0.10
        assert min(aps.values()) > 0.6
