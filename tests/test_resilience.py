"""Fault-tolerant runtime tests: injection determinism, recovery
equivalence, checkpoint atomicity/integrity, and degradation."""

import os

import numpy as np
import pytest

import repro.core as tg
from repro.bench import ResilientTrainer, load_checkpoint, save_checkpoint
from repro.bench import trainer as plain
from repro.bench.experiments import Experiment, ExperimentConfig
from repro.core import iter_batches
from repro.core.kernels import NodeTimeCache
from repro.durable import read_container
from repro.resilience import (
    CheckpointWriteAborted,
    FaultInjector,
    SimulatedProcessKill,
    TransientKernelError,
    validate_state,
)
from repro.resilience import hooks


def _experiment(seed=7, model="tgn"):
    cfg = ExperimentConfig(
        model=model, dataset="wiki", framework="tglite+opt", epochs=2,
        batch_size=300, dim_embed=8, dim_time=8, dim_mem=8,
        num_layers=1, seed=seed,
    )
    return Experiment(cfg)


def _fingerprint(exp):
    return (
        [p.data.copy() for p in exp.model.parameters()],
        exp.g.mem.data.data.copy(),
        exp.g.mem.time.copy(),
        exp.g.mailbox.mail.data.copy(),
        exp.g.mailbox.time.copy(),
    )


def _assert_fingerprints_equal(a, b):
    for pa, pb in zip(a[0], b[0]):
        np.testing.assert_array_equal(pa, pb)
    for xa, xb in zip(a[1:], b[1:]):
        np.testing.assert_array_equal(xa, xb)


def _run(tmp_path, injector=None, epochs=2, train_end=900,
         checkpoint_every=2, resume=False, seed=7, subdir="ck"):
    exp = _experiment(seed=seed)
    trainer = ResilientTrainer(
        exp.model, exp.g, exp.optimizer, exp.neg_sampler,
        batch_size=300, checkpoint_dir=str(tmp_path / subdir),
        checkpoint_every=checkpoint_every, injector=injector,
    )
    try:
        result = trainer.train(epochs=epochs, train_end=train_end, resume=resume)
    finally:
        exp.close()
    return result, _fingerprint(exp)


class TestInjectorDeterminism:
    def test_same_seed_same_pattern(self):
        a = FaultInjector(seed=3, rates={"kernel.sample": 0.2})
        b = FaultInjector(seed=3, rates={"kernel.sample": 0.2})
        pattern_a = [a.would_fire("kernel.sample", e, i) for e in range(3) for i in range(50)]
        pattern_b = [b.would_fire("kernel.sample", e, i) for e in range(3) for i in range(50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_different_seed_different_pattern(self):
        a = FaultInjector(seed=3, rates={"kernel.sample": 0.2})
        b = FaultInjector(seed=4, rates={"kernel.sample": 0.2})
        pattern_a = [a.would_fire("kernel.sample", 0, i) for i in range(200)]
        pattern_b = [b.would_fire("kernel.sample", 0, i) for i in range(200)]
        assert pattern_a != pattern_b

    def test_decisions_consume_no_rng(self):
        """Fault decisions must not perturb any numpy RNG stream."""
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        inj = FaultInjector(seed=1, rates={"kernel.sample": 0.5})
        for i in range(100):
            inj.would_fire("kernel.sample", 0, i)
        assert rng.bit_generator.state == before

    def test_transient_faults_fire_once_per_position(self):
        inj = FaultInjector(seed=0, schedules={"kernel.sample": [(0, 0)]})
        with inj:
            inj.advance(0, 0)
            with pytest.raises(TransientKernelError):
                hooks.poke("kernel.sample")
            # Retry at the same position succeeds.
            hooks.poke("kernel.sample")
        assert len(inj.log) == 1

    def test_install_is_exclusive(self):
        a = FaultInjector(seed=0)
        b = FaultInjector(seed=1)
        with a:
            with pytest.raises(RuntimeError):
                hooks.install(b)
        assert hooks.active() is None


class TestRecoveryEquivalence:
    def test_faulted_run_matches_fault_free(self, tmp_path):
        """Transient kernel fault + NaN gradients: the run completes via
        retry/rollback and ends bit-identical to the fault-free seeded
        run."""
        base, fp0 = _run(tmp_path, subdir="clean")
        injector = FaultInjector(
            seed=11,
            schedules={"kernel.sample": [(0, 1), (1, 2)], "nan_grad": [(0, 2)]},
        )
        faulted, fp1 = _run(tmp_path, injector=injector, subdir="faulted")
        assert faulted.retries >= 1
        assert faulted.rollbacks >= 1
        _assert_fingerprints_equal(fp0, fp1)
        assert [e.train_loss for e in base.epochs] == [
            e.train_loss for e in faulted.epochs
        ]

    def test_resume_after_process_kill_is_bit_exact(self, tmp_path):
        uninterrupted, fp0 = _run(tmp_path, subdir="full")
        injector = FaultInjector(seed=5, schedules={"process.kill": [(1, 1)]})
        exp = _experiment()
        trainer = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
            checkpoint_dir=str(tmp_path / "killed"), checkpoint_every=2,
            injector=injector,
        )
        with pytest.raises(SimulatedProcessKill):
            trainer.train(epochs=2, train_end=900)
        exp.close()
        assert hooks.active() is None  # injector uninstalled despite the kill
        resumed, fp1 = _run(tmp_path, resume=True, subdir="killed")
        assert resumed.events[0].kind == "resume"
        _assert_fingerprints_equal(fp0, fp1)

    @pytest.mark.parametrize("framework", ["tglite", "tgl"])
    @pytest.mark.parametrize("sampling", ["uniform", "recent"])
    def test_resume_is_bit_exact_under_either_sampling(
            self, tmp_path, framework, sampling):
        """Uniform sampling, negatives and dropout key their draws on the
        epoch and the batch's edges, which the stream cursor restores: a
        resume mid-way through the second epoch is bit-exact, and the
        checkpoint carries no RNG state at all."""
        def run(subdir, **kw):
            exp = Experiment(ExperimentConfig(
                model="tgat", dataset="wiki", framework=framework,
                sampling=sampling, epochs=2, batch_size=300, dim_embed=8,
                dim_time=8, num_layers=1, seed=7,
            ))
            try:
                result = exp.run_resilient_training(
                    str(tmp_path / subdir), checkpoint_every=4, **kw)
            finally:
                exp.close()
            return (result.epochs[-1].eval_ap,
                    [p.data.copy() for p in exp.model.parameters()])

        ap0, params0 = run("full")
        killer = FaultInjector(seed=5, schedules={"process.kill": [(1, 6)]})
        with pytest.raises(SimulatedProcessKill):
            run("killed", injector=killer)
        _, _, arrays = read_container(
            str(tmp_path / "killed" / ResilientTrainer.CHECKPOINT_NAME))
        assert not [k for k in arrays if k.startswith("rng/")]
        ap1, params1 = run("killed", resume=True)
        assert ap1 == ap0
        for pa, pb in zip(params0, params1):
            np.testing.assert_array_equal(pa, pb)

    def test_persistent_fault_degrades_instead_of_dying(self, tmp_path):
        """A *persistent* kernel fault trips degradation before the retry
        budget runs out, and training completes on the reference path."""
        injector = FaultInjector(
            seed=0,
            schedules={"kernel.sample": [(0, 0)]},
            transient=False,
        )
        result, _ = _run(tmp_path, injector=injector, epochs=1, train_end=600)
        assert any(e.kind == "degraded" for e in result.events)
        assert len(result.epochs) == 1

    def test_retry_exhaustion_reraises(self, tmp_path):
        """With degradation disabled (threshold above the retry budget), a
        persistent fault exhausts its retries and surfaces."""
        injector = FaultInjector(
            seed=0,
            schedules={"kernel.sample": [(0, 0)]},
            transient=False,
        )
        exp = _experiment()
        exp.g.ctx.degrade_threshold = 100
        trainer = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
            checkpoint_dir=str(tmp_path / "exhaust"), checkpoint_every=2,
            injector=injector,
        )
        with pytest.raises(TransientKernelError):
            trainer.train(epochs=1, train_end=600)
        assert hooks.active() is None
        exp.close()


class TestCheckpointIntegrity:
    def test_kill_mid_write_preserves_previous_checkpoint(self, tmp_path):
        exp = _experiment()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, exp.model, graph=exp.g, optimizer=exp.optimizer,
                        stream=(0, 0))
        injector = FaultInjector(seed=0, schedules={"checkpoint.kill": [(0, 5)]})
        with injector:
            injector.advance(0, 5)
            with pytest.raises(CheckpointWriteAborted):
                save_checkpoint(path, exp.model, graph=exp.g,
                                optimizer=exp.optimizer, stream=(0, 5))
        assert not os.path.exists(path + ".tmp")
        meta = load_checkpoint(path, exp.model, graph=exp.g,
                               optimizer=exp.optimizer)
        assert meta["stream"] == (0, 0)
        exp.close()

    def test_truncated_file_raises_value_error_naming_file(self, tmp_path):
        exp = _experiment()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, exp.model)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 3)
        with pytest.raises(ValueError, match="ck.npz"):
            load_checkpoint(path, exp.model)
        exp.close()

    def test_bit_corruption_raises_value_error(self, tmp_path):
        exp = _experiment()
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, exp.model)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(ValueError, match="ck.npz"):
            load_checkpoint(path, exp.model)
        exp.close()

    def test_memory_state_without_target_memory_raises(self, tmp_path):
        exp = _experiment()  # TGN: graph has memory + mailbox
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, exp.model, graph=exp.g)
        bare = tg.TGraph(exp.g.src, exp.g.dst, exp.g.ts,
                         num_nodes=exp.g.num_nodes)
        with pytest.raises(ValueError, match="no Memory attached"):
            load_checkpoint(path, exp.model, graph=bare)
        exp.close()


class TestStateValidation:
    def test_healthy_graph_validates_clean(self):
        exp = _experiment()
        assert validate_state(exp.g) == []
        exp.close()

    def test_nan_memory_detected(self):
        exp = _experiment()
        exp.g.mem.data.data[3, 0] = np.nan
        violations = validate_state(exp.g)
        assert any("memory" in v for v in violations)
        exp.close()

    def test_mailbox_cursor_out_of_range_detected(self):
        g = tg.TGraph([0, 1], [1, 0], [1.0, 2.0])
        g.set_mailbox(4, slots=3)
        g.mailbox._next_slot[0] = 7
        assert any("mailbox" in v for v in validate_state(g))

    def test_injected_cache_corruption_detected(self):
        cache = NodeTimeCache(capacity=8, dim=4)
        cache.store(np.array([1, 2]), np.array([1.0, 2.0]),
                    np.ones((2, 4), dtype=np.float32))
        assert cache.validate() == []
        injector = FaultInjector(seed=0, schedules={"cache.corrupt": [(0, 0)]})
        with injector:
            injector.advance(0, 0)
            hooks.poke("cache.corrupt", cache=cache)
        assert any("finite" in v or "non-finite" in v for v in cache.validate())

    def test_corrupt_slot_bucket_map_detected(self):
        # Evictions tombstone the bucket a slot records, so a wrong record
        # would kill a live neighbour's bucket: the sweep must see it.
        g = tg.TGraph([0, 1], [1, 0], [1.0, 2.0])
        ctx = tg.TContext(g)
        ctx.store.put(np.arange(6), np.zeros(6), np.ones((6, 2), dtype=np.float32), space="memo")
        assert validate_state(g, ctx) == []
        hot = ctx.store.space("memo").hot
        hot._slot_bucket[2] = (hot._slot_bucket[2] + 1) % hot._nbuckets
        assert validate_state(g, ctx) == ["cache[memo]: slot->bucket map disagrees with the hash table"]
        hot._slot_bucket[2] = -1
        assert "cache[memo]: slot->bucket map disagrees with the hash table" in validate_state(g, ctx)

    def test_validation_failure_rolls_back(self, tmp_path):
        """Silently corrupted node memory is caught by validation at the
        next checkpoint boundary (before any batch consumes it), rolled
        back, and the run still ends bit-identical to the clean one."""
        base, fp0 = _run(tmp_path, epochs=1, subdir="clean")
        exp = _experiment()
        trainer = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
            checkpoint_dir=str(tmp_path / "v"), checkpoint_every=2,
        )
        done = {"armed": False}

        class Corruptor:
            def advance(self, e, b):
                pass

            def poke(self, site, **info):
                # Flip memory to NaN exactly at the (0, 2) checkpoint
                # boundary, as a silent DMA corruption would.
                if (site == "trainer.batch" and not done["armed"]
                        and (info["epoch"], info["batch"]) == (0, 2)):
                    done["armed"] = True
                    exp.g.mem.data.data[5, 0] = np.nan

        corruptor = Corruptor()
        hooks.install(corruptor)
        try:
            result = trainer.train(epochs=1, train_end=900)
        finally:
            hooks.uninstall(corruptor)
        kinds = [e.kind for e in result.events]
        assert "validation" in kinds and "rollback" in kinds
        assert validate_state(exp.g) == []
        _assert_fingerprints_equal(fp0, _fingerprint(exp))
        exp.close()


class TestDegradation:
    def test_repeated_kernel_faults_degrade_to_reference_path(self, tmp_path):
        injector = FaultInjector(
            seed=2,
            schedules={"kernel.sample": [(0, 0), (0, 1), (0, 2)]},
        )
        exp = _experiment()
        trainer = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
            checkpoint_dir=str(tmp_path / "d"), checkpoint_every=2,
            injector=injector,
        )
        result = trainer.train(epochs=1, train_end=900)
        assert exp.g.ctx.degraded.get("kernel.sample")
        stats = exp.g.ctx.stats()
        assert stats.counters["kernel_faults:kernel.sample"] == 3
        assert stats.counters["degraded:kernel.sample"] == 1.0
        assert any(e.kind == "degraded" for e in result.events)
        assert result.retries == 3
        assert len(result.epochs) == 1  # training completed
        exp.close()

    def test_degraded_sampling_is_bit_identical(self, tmp_path):
        base, fp0 = _run(tmp_path, epochs=1, subdir="x")
        injector = FaultInjector(
            seed=2,
            schedules={"kernel.sample": [(0, 0), (0, 1), (0, 2)]},
        )
        degraded, fp1 = _run(tmp_path, injector=injector, epochs=1, subdir="y")
        _assert_fingerprints_equal(fp0, fp1)
        assert [e.train_loss for e in base.epochs] == [
            e.train_loss for e in degraded.epochs
        ]

    def test_persistent_cache_fault_during_evaluation_degrades(self, tmp_path):
        """``kernel.cache`` is only reached by evaluation (memoisation is
        inference-only): a persistent fault there must degrade and finish
        with the fault-free AP, not exhaust the retry budget."""
        aps = []
        for injector in (None, FaultInjector(
            schedules={"kernel.cache": [(0, 1)]},
            transient=False,
        )):
            exp = _experiment(model="tgat")
            trainer = ResilientTrainer(
                exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
                checkpoint_dir=str(tmp_path / f"c{len(aps)}"), injector=injector,
            )
            result = trainer.train(epochs=1, train_end=600, eval_end=1200)
            aps.append(result.epochs[0].eval_ap)
            exp.close()
        assert [e.kind for e in result.events if "kernel.cache" in e.detail] == [
            "retry", "retry", "degraded", "retry",
        ]
        assert aps[0] == aps[1]


class TestOneStepTwoLoops:
    """``train_step`` is the only step; the recovery loop adds nothing to
    a fault-free trajectory."""

    @pytest.mark.parametrize("model", ["tgn", "tgat"])
    def test_fault_free_resilient_train_equals_plain_train(self, model, tmp_path):
        exp = _experiment(model=model)
        ref = plain.train(exp.model, exp.g, exp.optimizer, exp.neg_sampler, 300,
                          epochs=2, train_end=900, eval_end=1500)
        ref_params = [p.data.copy() for p in exp.model.parameters()]
        exp.close()
        exp = _experiment(model=model)
        got = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
            checkpoint_dir=str(tmp_path), checkpoint_every=2,
        ).train(epochs=2, train_end=900, eval_end=1500)
        exp.close()
        assert [(e.train_loss, e.eval_ap) for e in got.epochs] == [
            (e.train_loss, e.eval_ap) for e in ref.epochs
        ]
        for a, b in zip(ref_params, exp.model.parameters()):
            np.testing.assert_array_equal(a, b.data)

    def test_warm_replay_from_start_matches_the_inline_loop(self):
        from repro.tensor import no_grad

        exp = _experiment()
        plain.train_epoch(exp.model, exp.g, exp.optimizer, exp.neg_sampler, 300, stop=600)
        exp.model.reset_state()
        exp.model.eval()
        exp.neg_sampler.reset()
        with no_grad():
            for batch in iter_batches(exp.g, 300, start=300, stop=1200):
                batch.neg_nodes = exp.neg_sampler.sample(len(batch))
                exp.model(batch)
        inline = _fingerprint(exp)[1:]
        plain.warm_replay(exp.model, exp.g, exp.neg_sampler, 300, stop=1200, start=300)
        for a, b in zip(inline, _fingerprint(exp)[1:]):
            assert a.tobytes() == b.tobytes()
        exp.close()


class TestFineTune:
    def _trainer(self, exp, tmp_path, injector=None):
        return ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=300,
            checkpoint_dir=str(tmp_path), checkpoint_every=2, injector=injector,
        )

    def test_train_checks_its_range_before_training(self, tmp_path):
        """``train`` and ``fine_tune`` share one up-front window check: a
        range past the graph raises before any checkpoint or step."""
        exp = _experiment()
        before = [p.data.copy() for p in exp.model.parameters()]
        trainer = ResilientTrainer(
            exp.model, exp.g, exp.optimizer, exp.neg_sampler, batch_size=200,
            checkpoint_dir=str(tmp_path), checkpoint_every=5,
        )
        n = exp.g.num_edges
        with pytest.raises(ValueError, match=f"exceeds the graph's {n} edges"):
            trainer.train(epochs=1, train_end=n + 1000)
        exp.close()
        assert not os.path.exists(trainer.checkpoint_path)
        for old, p in zip(before, exp.model.parameters()):
            np.testing.assert_array_equal(old, p.data)

    def test_fault_free_equals_a_hand_loop_of_train_step(self, tmp_path):
        """Each pass keys dropout and uniform draws on its index, and each
        batch draws the negatives of its own edge ids."""
        exp = _experiment()
        exp.model.train()
        for p in range(2):
            with plain._sampling_pass(exp.model, p):
                for batch in iter_batches(exp.g, 300, start=300, stop=1200):
                    exp.neg_sampler.reset(batch.start)
                    plain.train_step(exp.model, batch, exp.optimizer, exp.neg_sampler)
        by_hand = _fingerprint(exp)
        exp.close()
        exp = _experiment()
        result = self._trainer(exp, tmp_path).fine_tune(300, 1200, passes=2)
        exp.close()
        assert [e.epoch for e in result.epochs] == [0, 1]
        _assert_fingerprints_equal(by_hand, _fingerprint(exp))

    def test_nan_gradient_rolls_back_to_the_pass_anchor(self, tmp_path):
        exp = _experiment()
        clean = self._trainer(exp, tmp_path / "clean").fine_tune(300, 1200, passes=2)
        fp0 = _fingerprint(exp)
        exp.close()
        exp = _experiment()
        injector = FaultInjector(schedules={"nan_grad": [(1, 1)]})
        faulted = self._trainer(exp, tmp_path / "nan", injector).fine_tune(
            300, 1200, passes=2
        )
        exp.close()
        rollback = [e for e in faulted.events if e.kind == "rollback"]
        assert [(e.epoch, e.batch) for e in rollback] == [(1, 1)]
        assert "replay from (epoch 1, batch 0)" in rollback[0].detail
        _assert_fingerprints_equal(fp0, _fingerprint(exp))
        assert [e.train_loss for e in clean.epochs] == [
            e.train_loss for e in faulted.epochs
        ]

    def test_replacement_graph_trains_the_new_suffix(self, tmp_path):
        from repro.data import NegativeSampler
        from repro.nn import Adam
        from repro.scenarios.continual import EmbeddingLinkModel

        full = _experiment().g
        short, grown = (
            tg.TGraph(full.src[:n], full.dst[:n], full.ts[:n], num_nodes=full.num_nodes)
            for n in (600, 1200)
        )

        def build():
            model = EmbeddingLinkModel(full.num_nodes, dim=4, seed=1)
            neg = NegativeSampler(np.arange(full.num_nodes, dtype=np.int64), seed=2)
            return model, Adam(model.parameters(), lr=1e-2), neg

        model, optimizer, neg = build()
        model.train()
        for g, lo, hi in ((short, 0, 600), (grown, 600, 1200)):
            for batch in iter_batches(g, 300, start=lo, stop=hi):
                plain.train_step(model, batch, optimizer, neg)
        by_hand = model.embeddings()

        model, optimizer, neg = build()
        trainer = ResilientTrainer(model, short, optimizer, neg, 300,
                                   checkpoint_dir=str(tmp_path))
        trainer.fine_tune(0, 600)
        with pytest.raises(ValueError, match="exceeds the graph's 600 edges"):
            trainer.fine_tune(600, 1200)
        trainer.fine_tune(600, 1200, graph=grown)
        assert trainer.g is grown
        np.testing.assert_array_equal(model.embeddings(), by_hand)
        with pytest.raises(ValueError, match="exceeds the graph's 1200 edges"):
            trainer.fine_tune(1200, 1201)


@pytest.mark.parametrize("kind", [
    pytest.param("kernel.sample", id="kernel-fault"),
    pytest.param("nan_grad", id="nan-grad"),
])
def test_fault_matrix_completes_and_matches(kind, tmp_path):
    """Each fault class alone, seeded, must recover to the fault-free
    trajectory."""
    base, fp0 = _run(tmp_path, epochs=1, subdir="base")
    injector = FaultInjector(seed=13, schedules={kind: [(0, 1)]})
    faulted, fp1 = _run(tmp_path, injector=injector, epochs=1, subdir=kind)
    assert len(injector.log) >= 1
    _assert_fingerprints_equal(fp0, fp1)
