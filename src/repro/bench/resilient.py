"""Fault-tolerant training runtime: retry, rollback, and degradation.

:class:`ResilientTrainer` wraps the §5 training protocol (same batch
stream, loss, and evaluation as :func:`repro.bench.trainer.train`) in a
recovery loop built on three mechanisms:

* **Retry** — a :class:`~repro.resilience.errors.TransientKernelError`
  raised mid-batch restores an in-RAM snapshot of everything the batch
  mutates before failing (node memory, mailbox, RNG streams) and reruns
  the batch, with capped exponential backoff.  Because the snapshot is
  bit-exact and injected faults are transient, the retried batch
  produces exactly the numbers the fault-free run would have.
* **Rollback** — a non-finite loss or parameter after the optimizer
  step (NaN gradients poison both parameters *and* optimizer moments,
  so retrying the batch cannot help) rolls the full training state back
  to the last on-disk checkpoint — parameters, memory, mailbox,
  optimizer moments, RNG streams, stream cursor — and replays forward.
* **Degradation** — repeated faults from one kernel site trip the
  context's degradation threshold; subsequent batches route through the
  uncached reference path for that site (bit-identical results, no
  further exposure to the faulting kernel), recorded in
  ``ctx.stats().degraded``.

Checkpoints are written every ``checkpoint_every`` batches through
:func:`repro.bench.checkpoint.save_checkpoint` (atomic, CRC-verified)
and carry the RNG + cursor state needed for bit-exact mid-epoch resume:
a training process hard-killed between checkpoints restarts with
``resume=True`` and continues on the same trajectory.  With
``delta_log=True`` the trainer additionally write-ahead logs a cheap
incremental delta after every successful batch (changed memory/mailbox
rows, parameters, optimizer moments, RNG words) into a
:class:`~repro.durable.store.DurableStateStore` under
``checkpoint_dir/wal``; resume then replays ``checkpoint + delta
suffix``, landing at the last durably completed batch instead of the
last full checkpoint — same bit-exact trajectory, far less recomputation.  State invariants
(:func:`repro.resilience.validate.validate_state`) are checked before
each checkpoint so corrupted state is never persisted — a violation
clears the derived caches and rolls back instead.

With ``num_replicas > 1`` batches run through
:class:`~repro.distributed.data_parallel.SimulatedDataParallel`;
crashed replicas (``worker.crash`` faults) have their shards
redistributed to the survivors, charging the simulated parallel clock
while leaving the synchronous-SGD numerics untouched.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import TBatch, TGraph
from ..core.state import load_state_image, state_image
from ..data import NegativeSampler
from ..distributed import SimulatedDataParallel
from ..nn import Optimizer, link_prediction_loss
from ..resilience import hooks
from ..resilience.errors import (
    CheckpointWriteAborted,
    DivergenceError,
    StateValidationError,
    TransientKernelError,
)
from ..resilience.validate import validate_state
from ..durable.codec import KIND_DELTA, KIND_MARKER
from ..tensor.random import default_generator
from .checkpoint import (
    _optimizer_state,
    _pack_generator,
    _restore_generator,
    _restore_optimizer,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import EpochResult, TrainResult, _mark_time_encoders_updated, evaluate

__all__ = ["ResilienceEvent", "ResilientResult", "ResilientTrainer"]


@dataclass(frozen=True)
class ResilienceEvent:
    """One recovery action taken by the trainer.

    ``kind`` is one of: ``retry``, ``rollback``, ``checkpoint``,
    ``checkpoint-aborted``, ``validation``, ``degraded``,
    ``redistribution``, ``resume``.
    """

    kind: str
    epoch: int
    batch: int
    detail: str = ""


@dataclass
class ResilientResult(TrainResult):
    """Training results plus the recovery actions that produced them."""

    events: List[ResilienceEvent] = field(default_factory=list)
    #: simulated N-replica wall time (only accumulated when
    #: ``num_replicas > 1``); includes redistribution charges.
    simulated_parallel_seconds: float = 0.0

    def _count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def retries(self) -> int:
        return self._count("retry")

    @property
    def rollbacks(self) -> int:
        return self._count("rollback")

    @property
    def checkpoints(self) -> int:
        return self._count("checkpoint")

    @property
    def redistributions(self) -> int:
        return self._count("redistribution")


class ResilientTrainer:
    """Checkpointing training loop that survives injected (or real) faults.

    Args:
        model: trainer-compatible model (``forward(batch)->(pos,neg)``,
            ``reset_state()``).
        g: the temporal graph (attached memory/mailbox is checkpointed).
        optimizer: optimizer over the model's parameters.
        neg_sampler: negative sampler; its RNG stream is checkpointed.
        batch_size: chronological batch size.
        checkpoint_dir: directory for the rolling checkpoint file.
        checkpoint_every: batches between checkpoints (a checkpoint is
            always taken at the start of each epoch).
        injector: optional :class:`~repro.resilience.FaultInjector` to
            install for the duration of ``train`` (one may instead be
            installed externally as a context manager).
        max_retries: transient-fault retries per batch before giving up;
            also caps repeated rollbacks triggered at one stream position.
        backoff_base: first retry's backoff sleep in seconds (0 disables
            sleeping; retry decisions stay deterministic either way).
        backoff_cap: upper bound on a single backoff sleep.
        num_replicas: >1 routes batches through simulated data-parallel
            execution (enables worker crash/straggler fault sites).
        interconnect_bandwidth: all-reduce cost model, forwarded to
            :class:`~repro.distributed.SimulatedDataParallel`.
        validate_on_checkpoint: run state-invariant validation before
            every checkpoint; violations veto the write and roll back.
        extra_generators: additional named RNG streams to checkpoint and
            snapshot (e.g. a model sampler's ``_rng`` under uniform
            neighbor sampling).
        delta_log: write-ahead log an incremental state delta after every
            successful batch (into ``checkpoint_dir/wal``) so resume
            replays ``checkpoint + delta suffix`` instead of recomputing
            the whole checkpoint interval.
        delta_fsync: WAL durability policy for the delta log
            (``'always'`` / ``'batch'`` / ``'never'``).
        ctx: opt-in store-driven batch prefetch: when the context's
            tiered store prefetches (``prefetch_depth > 0``), each
            batch's working set is gathered through the store and the
            next batch's set is prefetched behind it on the simulated
            clock.  A retried or rolled-back batch simply re-consumes
            rows that are already hot, so recovery stays bit-exact.
    """

    CHECKPOINT_NAME = "resilient.ckpt"

    def __init__(
        self,
        model,
        g: TGraph,
        optimizer: Optimizer,
        neg_sampler: NegativeSampler,
        batch_size: int,
        checkpoint_dir: str,
        checkpoint_every: int = 50,
        injector=None,
        max_retries: int = 3,
        backoff_base: float = 0.0,
        backoff_cap: float = 1.0,
        num_replicas: int = 1,
        interconnect_bandwidth: float = 1.0e9,
        validate_on_checkpoint: bool = True,
        extra_generators: Optional[Dict[str, np.random.Generator]] = None,
        delta_log: bool = False,
        delta_fsync: str = "always",
        ctx=None,
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.model = model
        self.g = g
        self.optimizer = optimizer
        self.neg_sampler = neg_sampler
        self.batch_size = batch_size
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.num_replicas = num_replicas
        self.validate_on_checkpoint = validate_on_checkpoint
        self.extra_generators = dict(extra_generators or {})
        self._dp = (
            SimulatedDataParallel(model, optimizer, num_replicas, interconnect_bandwidth)
            if num_replicas > 1
            else None
        )
        self.store = None
        if delta_log:
            from ..durable.store import DurableStateStore

            self.store = DurableStateStore(
                os.path.join(checkpoint_dir, "wal"), fsync=delta_fsync
            )
        self._pipeline = None
        fstore = getattr(ctx, "store", None) if ctx is not None else None
        if fstore is not None and fstore.config.prefetch_depth > 0:
            from ..store.prefetch import BatchPipeline, attach_graph_sources

            attach_graph_sources(fstore, g)
            self._pipeline = BatchPipeline(fstore, g)

    # ---- state plumbing ---------------------------------------------------------

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.checkpoint_dir, self.CHECKPOINT_NAME)

    def _generators(self) -> Dict[str, np.random.Generator]:
        # Fetched lazily every time: manual_seed rebinds the global
        # generator and NegativeSampler.reset() rebuilds its stream.
        return {
            "global": default_generator(),
            "negative": self.neg_sampler._rng,
            **self.extra_generators,
        }

    def _state(self) -> Dict[str, np.ndarray]:
        """Live tables of the graph's attached memory/mailbox, by image key."""
        return state_image(self.g.mem, self.g.mailbox)

    def _snapshot(self) -> dict:
        """In-RAM copy of everything one batch mutates before the step."""
        return {
            "rng": {
                name: copy.deepcopy(gen.bit_generator.state)
                for name, gen in self._generators().items()
            },
            "state": {key: table.copy() for key, table in self._state().items()},
        }

    def _restore_snapshot(self, snap: dict) -> None:
        for name, gen in self._generators().items():
            gen.bit_generator.state = copy.deepcopy(snap["rng"][name])
        load_state_image(snap["state"], self.g.mem, self.g.mailbox, "batch snapshot")

    # ---- incremental delta log --------------------------------------------------

    def _build_delta(self, snap: dict) -> Dict[str, np.ndarray]:
        """Everything one completed batch changed, as a flat array dict.

        Every state table is diffed against the pre-batch snapshot (only
        the touched rows are logged, under the table's image key plus a
        ``rows/`` index); parameters, optimizer moments, and RNG words
        are small and logged whole.
        """
        arrays: Dict[str, np.ndarray] = {}
        for name, value in self.model.state_dict().items():
            arrays["model/" + name] = value
        for key, value in _optimizer_state(self.optimizer).items():
            arrays["optim/" + key] = value
        for name, gen in self._generators().items():
            arrays["rng/" + name] = _pack_generator(gen)
        for key, table in self._state().items():
            n = len(table)
            changed = np.flatnonzero(
                (table.reshape(n, -1) != snap["state"][key].reshape(n, -1)).any(axis=1)
            )
            arrays["rows/" + key] = changed
            arrays[key] = table[changed]
        return arrays

    def _apply_delta(self, arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`_build_delta`: write one delta in place."""
        model_state = {
            key[len("model/"):]: value
            for key, value in arrays.items()
            if key.startswith("model/")
        }
        if model_state:
            self.model.load_state_dict(model_state)
        _restore_optimizer(
            self.optimizer,
            {
                key[len("optim/"):]: value
                for key, value in arrays.items()
                if key.startswith("optim/")
            },
        )
        for name, gen in self._generators().items():
            key = "rng/" + name
            if key in arrays:
                _restore_generator(gen, arrays[key])
        for key, table in self._state().items():
            table[arrays["rows/" + key]] = arrays[key]
        _mark_time_encoders_updated(self.model)

    def _replay_deltas(self, epoch: int, b: int, n_batches: int) -> Tuple[int, int, int]:
        """Fast-forward from the checkpoint cursor through logged deltas.

        Walks the committed log suffix: ``checkpoint`` markers discard
        deltas already folded into the on-disk checkpoint, ``rollback``
        markers discard deltas from abandoned timelines.  The surviving
        deltas are applied only while they form a contiguous run starting
        at the checkpoint cursor — a hole (lost fsync, torn tail) stops
        the fast-forward and the rest is recomputed.  The final batch of
        an epoch is always recomputed rather than replayed (the eval +
        epoch-rollover bookkeeping belongs to the live loop); either way
        the trajectory is bit-exact.
        """
        pending = []
        for rec in self.store.recover().records:
            if rec.kind == KIND_MARKER:
                name = rec.meta.get("name")
                if name == "checkpoint":
                    pending = []
                elif name == "rollback":
                    target = (int(rec.meta["epoch"]), int(rec.meta["batch"]))
                    pending = [
                        d for d in pending
                        if (int(d.meta["epoch"]), int(d.meta["batch"])) < target
                    ]
            elif rec.kind == KIND_DELTA:
                pending.append(rec)
        replayed = 0
        for rec in pending:
            pos = (int(rec.meta["epoch"]), int(rec.meta["batch"]))
            if pos < (epoch, b):
                continue  # already inside the checkpoint
            if pos != (epoch, b) or b >= n_batches - 1:
                break
            self._apply_delta(rec.arrays)
            b += 1
            replayed += 1
        return epoch, b, replayed

    def _clear_derived_caches(self) -> None:
        """Drop inference-only embed caches (derived state, never
        checkpointed) so corrupt or stale entries cannot survive —
        including rows demoted into the store's staging/cold tiers."""
        ctx = getattr(self.g, "ctx", None)
        if ctx is not None:
            ctx.clear_embed_cache()

    # ---- recovery actions -------------------------------------------------------

    def _write_checkpoint(self, result: ResilientResult, epoch: int, batch: int) -> str:
        """Validate + atomically persist; returns the outcome kind."""
        if self.validate_on_checkpoint:
            violations = validate_state(self.g)
            if violations:
                result.events.append(
                    ResilienceEvent("validation", epoch, batch, "; ".join(violations[:3]))
                )
                if not os.path.exists(self.checkpoint_path):
                    # Nothing to roll back to: the very first state of the
                    # run is already invalid, which is not recoverable.
                    raise StateValidationError(violations)
                return "validation"
        try:
            save_checkpoint(
                self.checkpoint_path,
                self.model,
                graph=self.g,
                optimizer=self.optimizer,
                generators=self._generators(),
                stream=(epoch, batch),
            )
        except CheckpointWriteAborted as exc:
            result.events.append(
                ResilienceEvent("checkpoint-aborted", epoch, batch, str(exc))
            )
            return "checkpoint-aborted"
        if self.store is not None:
            # Deltas below this marker are folded into the checkpoint:
            # replay ignores them and sealed log segments compact away.
            lsn = self.store.log_marker(
                "checkpoint", {"epoch": epoch, "batch": batch}
            )
            self.store.sync()
            self.store.compacted_segments += self.store.wal.compact_below(lsn)
        result.events.append(ResilienceEvent("checkpoint", epoch, batch))
        return "checkpoint"

    def _rollback(
        self, result: ResilientResult, epoch: int, batch: int, reason: str
    ) -> Tuple[int, int]:
        """Restore the last checkpoint; returns its stream cursor."""
        self._clear_derived_caches()
        meta = load_checkpoint(
            self.checkpoint_path,
            self.model,
            graph=self.g,
            optimizer=self.optimizer,
            generators=self._generators(),
        )
        _mark_time_encoders_updated(self.model)
        target = meta["stream"]
        if target is None:
            raise ValueError(
                f"checkpoint {self.checkpoint_path!r} carries no stream "
                "cursor; cannot roll back"
            )
        if self.store is not None:
            self.store.log_marker(
                "rollback", {"epoch": int(target[0]), "batch": int(target[1])}
            )
        result.events.append(
            ResilienceEvent(
                "rollback",
                epoch,
                batch,
                f"{reason}; replay from (epoch {target[0]}, batch {target[1]})",
            )
        )
        return target

    def _guard_divergence(self, loss_value: float) -> None:
        """Raise DivergenceError on non-finite loss or parameters."""
        bad = []
        if not np.isfinite(loss_value):
            bad.append(f"loss={loss_value}")
        for i, p in enumerate(self.model.parameters()):
            if not np.isfinite(p.data).all():
                bad.append(f"param[{i}] non-finite")
                break
        if bad:
            raise DivergenceError("divergence detected: " + ", ".join(bad))

    # ---- batch execution --------------------------------------------------------

    def _run_batch(self, result: ResilientResult, epoch: int, b: int,
                   lo: int, hi: int) -> float:
        """Forward/backward/step for one (freshly built) batch over edges
        ``[lo, hi)``."""
        batch = TBatch(self.g, lo, hi)
        if self._pipeline is not None:
            # Demand-gather this batch's working set (consuming any rows
            # a previous batch's lookahead already staged).
            self._pipeline.consume_batch(batch)
        if self._dp is not None:
            step = self._dp.train_step(batch, self.neg_sampler)
            result.simulated_parallel_seconds += step.simulated_parallel_seconds
            survivors = len(step.shards) - len(step.crashed_replicas)
            for replica in step.crashed_replicas:
                result.events.append(
                    ResilienceEvent(
                        "redistribution", epoch, b,
                        f"replica {replica} crashed; shard redistributed to "
                        f"{survivors} survivors",
                    )
                )
            loss_value = step.loss
        else:
            self.model.train()
            batch.neg_nodes = self.neg_sampler.sample(len(batch))
            self.optimizer.zero_grad()
            pos, neg = self.model(batch)
            loss = link_prediction_loss(pos, neg)
            loss.backward()
            self.optimizer.step()
            loss_value = loss.item()
        _mark_time_encoders_updated(self.model)
        self._guard_divergence(loss_value)
        if self._pipeline is not None:
            # Overlap: this batch's compute pays for the next one's
            # transfers.  Prefetching past train_end (into edges the
            # epoch never reaches) just leaves a few staged rows unused.
            self._pipeline.advance(batch)
            hi2 = min(hi + self.batch_size, self.g.num_edges)
            if hi < hi2:
                self._pipeline.prefetch_batch(TBatch(self.g, hi, hi2))
        return loss_value

    def _attempt_batch(self, result: ResilientResult, epoch: int, b: int,
                       lo: int, hi: int) -> Tuple[float, dict]:
        """Run one batch with snapshot-restore retries on transient faults.

        Returns ``(loss, snap)`` — the pre-batch snapshot doubles as the
        diff base for the incremental delta log.
        """
        snap = self._snapshot()
        ctx = getattr(self.g, "ctx", None)
        for attempt in range(self.max_retries + 1):
            try:
                return self._run_batch(result, epoch, b, lo, hi), snap
            except TransientKernelError as exc:
                self._restore_snapshot(snap)
                if ctx is not None and ctx.record_kernel_fault(exc.site):
                    result.events.append(
                        ResilienceEvent(
                            "degraded", epoch, b,
                            f"{exc.site} degraded to reference path after "
                            f"{ctx.degrade_threshold} faults",
                        )
                    )
                if attempt >= self.max_retries:
                    raise
                result.events.append(
                    ResilienceEvent("retry", epoch, b, f"{exc.site} (attempt {attempt + 1})")
                )
                if self.backoff_base > 0:
                    time.sleep(min(self.backoff_cap, self.backoff_base * 2**attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _evaluate_with_retry(
        self, result: ResilientResult, epoch: int, n_batches: int,
        train_end: int, eval_end: int,
    ) -> Tuple[float, float]:
        """Evaluation with whole-pass snapshot retry (eval mutates memory)."""
        snap = self._snapshot()
        for attempt in range(self.max_retries + 1):
            try:
                return evaluate(
                    self.model, self.g, self.neg_sampler, self.batch_size,
                    start=train_end, stop=eval_end,
                )
            except TransientKernelError as exc:
                self._restore_snapshot(snap)
                if attempt >= self.max_retries:
                    raise
                result.events.append(
                    ResilienceEvent(
                        "retry", epoch, n_batches,
                        f"{exc.site} during evaluation (attempt {attempt + 1})",
                    )
                )
        raise AssertionError("unreachable")  # pragma: no cover

    # ---- main loop --------------------------------------------------------------

    def train(
        self,
        epochs: int,
        train_end: int,
        eval_end: Optional[int] = None,
        resume: bool = False,
    ) -> ResilientResult:
        """Run the fault-tolerant training loop.

        Args:
            epochs: total epochs (an interrupted run resumed with
                ``resume=True`` still counts from epoch 0).
            train_end: training edges are ``[0, train_end)``.
            eval_end: per-epoch evaluation over ``[train_end, eval_end)``.
            resume: load ``checkpoint_path`` and continue bit-exactly
                from its stream cursor instead of starting fresh.
        """
        if train_end <= 0:
            raise ValueError("train_end must be positive")
        result = ResilientResult()
        n_batches = -(-train_end // self.batch_size)
        epoch, b = 0, 0
        # True when the state at the loop head was restored from a
        # checkpoint (resume or rollback): the checkpoint already holds
        # the post-reset epoch state, so the b==0 reset must be skipped.
        restored = False
        if resume:
            meta = load_checkpoint(
                self.checkpoint_path,
                self.model,
                graph=self.g,
                optimizer=self.optimizer,
                generators=self._generators(),
            )
            _mark_time_encoders_updated(self.model)
            self._clear_derived_caches()
            if meta["stream"] is None:
                raise ValueError(
                    f"checkpoint {self.checkpoint_path!r} carries no stream "
                    "cursor; cannot resume"
                )
            epoch, b = meta["stream"]
            restored = True
            detail = f"resumed from {self.checkpoint_path}"
            if self.store is not None:
                epoch, b, replayed = self._replay_deltas(epoch, b, n_batches)
                if replayed:
                    detail += f" + {replayed} logged deltas"
            result.events.append(ResilienceEvent("resume", epoch, b, detail))

        own_injector = self.injector is not None and hooks.active() is not self.injector
        if own_injector:
            hooks.install(self.injector)
        try:
            epoch_seconds = 0.0
            epoch_losses: Dict[int, float] = {}
            rollback_streak: Dict[Tuple[int, int], int] = {}
            while epoch < epochs:
                if b == 0 and not restored:
                    self.model.reset_state()
                    self.neg_sampler.reset()
                    epoch_seconds = 0.0
                    epoch_losses = {}
                restored = False
                injector = hooks.active()
                if injector is not None:
                    injector.advance(epoch, b)
                hooks.poke("trainer.batch", epoch=epoch, batch=b)
                if b % self.checkpoint_every == 0:
                    outcome = self._write_checkpoint(result, epoch, b)
                    if outcome == "validation":
                        # Corrupted state must never be trained on: the
                        # derived caches are dropped and the stream
                        # replays from the last good checkpoint (there is
                        # always one at the start of the current epoch).
                        epoch, b = self._rollback(result, epoch, b, "state validation failed")
                        epoch_losses = {k: v for k, v in epoch_losses.items() if k < b}
                        restored = True
                        continue
                t0 = time.perf_counter()
                lo = b * self.batch_size
                try:
                    loss_value, snap = self._attempt_batch(
                        result, epoch, b, lo, min(lo + self.batch_size, train_end)
                    )
                    epoch_losses[b] = loss_value
                    if self.store is not None:
                        self.store.log_delta(
                            self._build_delta(snap),
                            {"epoch": epoch, "batch": b, "loss": loss_value},
                        )
                except DivergenceError as exc:
                    key = (epoch, b)
                    rollback_streak[key] = rollback_streak.get(key, 0) + 1
                    if rollback_streak[key] > self.max_retries:
                        raise
                    epoch, b = self._rollback(result, epoch, b, str(exc))
                    # Replayed batches recompute their losses from the
                    # rollback target on; drop the abandoned entries.
                    epoch_losses = {k: v for k, v in epoch_losses.items() if k < b}
                    restored = True
                    continue
                epoch_seconds += time.perf_counter() - t0
                b += 1
                if b >= n_batches:
                    eval_s, ap = (0.0, 0.0)
                    if eval_end is not None and eval_end > train_end:
                        eval_s, ap = self._evaluate_with_retry(
                            result, epoch, n_batches, train_end, eval_end
                        )
                    mean_loss = (
                        float(np.mean(list(epoch_losses.values()))) if epoch_losses else 0.0
                    )
                    result.epochs.append(
                        EpochResult(epoch, epoch_seconds, mean_loss, eval_s, ap)
                    )
                    epoch += 1
                    b = 0
        finally:
            if self.store is not None:
                self.store.sync()
            if own_injector:
                hooks.uninstall(self.injector)
        return result

    # ---- incremental fine-tuning ------------------------------------------------

    def fine_tune(
        self,
        start: int,
        stop: int,
        passes: int = 1,
        graph: Optional[TGraph] = None,
    ) -> ResilientResult:
        """Incrementally train on the edge window ``[start, stop)``.

        The continual-learning entry point (:mod:`repro.scenarios.continual`):
        unlike :meth:`train` it never resets model state or the negative
        sampler — it *continues* the current trajectory on freshly
        arrived edges — and it accepts a replacement *graph* so a WAL
        tailer can grow the edge set between calls.  All of the
        resilience machinery still applies: transient faults retry under
        snapshot-restore, an anchor checkpoint is written at the window
        start (plus every ``checkpoint_every`` windows), and divergence
        rolls back to the last checkpoint with the same streak cap as
        :meth:`train`.

        Args:
            start: first edge index of the fine-tuning window.
            stop: one past the last edge index.
            passes: sweeps over the window (each a mini-epoch in the
                returned result's ``epochs`` list).
            graph: optionally replace ``self.g`` first (its edge arrays
                must contain ``[start, stop)``).

        Returns a :class:`ResilientResult` covering just this call.
        """
        if graph is not None:
            self.g = graph
        start, stop = int(start), int(stop)
        result = ResilientResult()
        if stop <= start or passes < 1:
            return result
        if stop > len(self.g.src):
            raise ValueError(
                f"fine-tune window [{start}, {stop}) exceeds the graph's "
                f"{len(self.g.src)} edges"
            )
        n_windows = -(-(stop - start) // self.batch_size)
        own_injector = (
            self.injector is not None and hooks.active() is not self.injector
        )
        if own_injector:
            hooks.install(self.injector)
        try:
            p, w = 0, 0
            losses: List[float] = []
            pass_seconds = 0.0
            rollback_streak: Dict[Tuple[int, int], int] = {}
            while p < passes:
                injector = hooks.active()
                if injector is not None:
                    injector.advance(p, w)
                hooks.poke("trainer.batch", epoch=p, batch=w)
                if w % self.checkpoint_every == 0:
                    outcome = self._write_checkpoint(result, p, w)
                    if outcome == "validation":
                        p, w = self._rollback(result, p, w, "state validation failed")
                        del losses[w:]
                        continue
                lo = start + w * self.batch_size
                hi = min(lo + self.batch_size, stop)
                t0 = time.perf_counter()
                try:
                    loss_value, snap = self._attempt_batch(result, p, w, lo, hi)
                    losses.append(loss_value)
                    if self.store is not None:
                        self.store.log_delta(
                            self._build_delta(snap),
                            {"epoch": p, "batch": w, "loss": loss_value},
                        )
                except DivergenceError as exc:
                    key = (p, w)
                    rollback_streak[key] = rollback_streak.get(key, 0) + 1
                    if rollback_streak[key] > self.max_retries:
                        raise
                    p, w = self._rollback(result, p, w, str(exc))
                    del losses[w:]
                    continue
                pass_seconds += time.perf_counter() - t0
                w += 1
                if w >= n_windows:
                    mean_loss = float(np.mean(losses)) if losses else 0.0
                    result.epochs.append(
                        EpochResult(p, pass_seconds, mean_loss, 0.0, 0.0)
                    )
                    losses = []
                    pass_seconds = 0.0
                    p += 1
                    w = 0
        finally:
            if self.store is not None:
                self.store.sync()
            if own_injector:
                hooks.uninstall(self.injector)
        return result

    def close(self) -> None:
        """Close the delta-log store (no-op without one)."""
        if self.store is not None:
            self.store.close()
