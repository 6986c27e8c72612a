"""Fault-tolerant training runtime: retry, rollback, and degradation.

:class:`ResilientTrainer` wraps the §5 training protocol (same batch
stream, loss, and evaluation as :func:`repro.bench.trainer.train`) in a
recovery loop built on three mechanisms:

* **Retry** — a :class:`~repro.resilience.errors.TransientKernelError`
  raised mid-batch restores an in-RAM snapshot of the state the batch
  mutates before failing (node memory and mailbox) and reruns the batch,
  up to :data:`MAX_RETRIES` times.  Because the snapshot is
  bit-exact and injected faults are transient, the retried batch
  produces exactly the numbers the fault-free run would have.
* **Rollback** — a non-finite loss or parameter after the optimizer
  step (NaN gradients poison both parameters *and* optimizer moments,
  so retrying the batch cannot help) rolls the full training state back
  to the last on-disk checkpoint — parameters, memory, mailbox,
  optimizer moments, stream cursor — and replays forward.
* **Degradation** — repeated faults from one kernel site trip the
  context's degradation threshold; subsequent batches route through the
  uncached reference path for that site (bit-identical results, no
  further exposure to the faulting kernel), recorded in
  ``ctx.degraded`` (``degraded:<site>`` in ``ctx.stats()``).

Checkpoints are written every ``checkpoint_every`` batches through
:func:`repro.bench.checkpoint.save_checkpoint` (atomic, CRC-verified)
and carry the stream cursor needed for bit-exact mid-epoch resume: a
training process hard-killed between checkpoints restarts with
``resume=True`` and continues on the same trajectory.  No RNG state
needs saving: negatives, dropout masks and uniform neighbour draws are
keyed on the pass and the batch's edge ids (each batch starts with
``neg_sampler.reset(lo)``), which the cursor restores.  State invariants
(:func:`repro.resilience.validate.validate_state`) are checked before
each checkpoint so corrupted state is never persisted — a violation
clears the derived caches and rolls back instead.

:meth:`ResilientTrainer.train` and :meth:`~ResilientTrainer.fine_tune`
are two entries to one cursor loop over ``(pass, window)``; every batch
it runs is :func:`repro.bench.trainer.train_step`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import TBatch, TGraph
from ..core.state import load_state_image, state_image
from ..data import NegativeSampler
from ..nn import Optimizer
from ..resilience import hooks
from ..resilience.errors import (
    CheckpointWriteAborted,
    DivergenceError,
    StateValidationError,
    TransientKernelError,
)
from ..resilience.validate import validate_state
from .checkpoint import load_checkpoint, save_checkpoint
from .trainer import (
    EpochResult,
    TrainResult,
    _mark_time_encoders_updated,
    _sampling_pass,
    evaluate,
    train_step,
)

__all__ = ["ResilienceEvent", "ResilientResult", "ResilientTrainer"]

#: transient-fault retries per batch before giving up; also caps repeated
#: rollbacks triggered at one stream position.
MAX_RETRIES = 3


@dataclass(frozen=True)
class ResilienceEvent:
    """One recovery action taken by the trainer.

    ``kind`` is one of: ``retry``, ``rollback``, ``checkpoint``,
    ``checkpoint-aborted``, ``validation``, ``degraded``, ``resume``.
    """

    kind: str
    epoch: int
    batch: int
    detail: str = ""


@dataclass
class ResilientResult(TrainResult):
    """Training results plus the recovery actions that produced them."""

    events: List[ResilienceEvent] = field(default_factory=list)

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


class ResilientTrainer:
    """Checkpointing training loop that survives injected (or real) faults.

    Args:
        model: trainer-compatible model (``forward(batch)->(pos,neg)``,
            ``reset_state()``).
        g: the temporal graph (attached memory/mailbox is checkpointed).
        optimizer: optimizer over the model's parameters.
        neg_sampler: negative sampler; each batch ``[lo, hi)`` draws
            after ``reset(lo)``, so its negatives are keyed on the batch's
            absolute edge ids and no sampler state is checkpointed.
        batch_size: chronological batch size.
        checkpoint_dir: directory for the rolling checkpoint file.
        checkpoint_every: batches between checkpoints (a checkpoint is
            always taken at the start of each epoch).
        injector: optional :class:`~repro.resilience.FaultInjector` to
            install for the duration of ``train`` (one may instead be
            installed externally as a context manager).
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
    ):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.neg_sampler = neg_sampler
        self.batch_size = batch_size
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.g = g

    # ---- state plumbing ---------------------------------------------------------

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.checkpoint_dir, self.CHECKPOINT_NAME)

    def _snapshot(self) -> Dict[str, np.ndarray]:
        """In-RAM copy of the memory/mailbox tables one batch mutates."""
        return {
            key: table.copy()
            for key, table in state_image(self.g.mem, self.g.mailbox).items()
        }

    def _restore_snapshot(self, snap: Dict[str, np.ndarray]) -> None:
        load_state_image(snap, self.g.mem, self.g.mailbox, "batch snapshot")

    def _clear_derived_caches(self) -> None:
        """Drop inference-only embed caches (derived state, never
        checkpointed) so corrupt or stale entries cannot survive."""
        ctx = getattr(self.g, "ctx", None)
        if ctx is not None:
            ctx.clear_embed_cache()

    # ---- recovery actions -------------------------------------------------------

    def _write_checkpoint(self, result: ResilientResult, epoch: int, batch: int) -> str:
        """Validate + atomically persist; returns the outcome kind."""
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
                stream=(epoch, batch),
            )
        except CheckpointWriteAborted as exc:
            result.events.append(
                ResilienceEvent("checkpoint-aborted", epoch, batch, str(exc))
            )
            return "checkpoint-aborted"
        result.events.append(ResilienceEvent("checkpoint", epoch, batch))
        return "checkpoint"

    def _restore_checkpoint(self) -> Tuple[int, int]:
        """Load the on-disk checkpoint into the live training state
        (resume and rollback alike); returns its stream cursor."""
        self._clear_derived_caches()
        meta = load_checkpoint(
            self.checkpoint_path,
            self.model,
            graph=self.g,
            optimizer=self.optimizer,
        )
        _mark_time_encoders_updated(self.model)
        if meta["stream"] is None:
            raise ValueError(
                f"checkpoint {self.checkpoint_path!r} carries no stream "
                "cursor; cannot continue from it"
            )
        return meta["stream"]

    def _rollback(
        self, result: ResilientResult, epoch: int, batch: int, reason: str
    ) -> Tuple[int, int]:
        """Restore the last checkpoint; returns its stream cursor."""
        target = self._restore_checkpoint()
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

    def _run_batch(self, lo: int, hi: int) -> float:
        """:func:`~repro.bench.trainer.train_step` on a freshly built
        batch over edges ``[lo, hi)``, plus the divergence guard."""
        batch = TBatch(self.g, lo, hi)
        self.model.train()
        self.neg_sampler.reset(lo)
        loss_value = train_step(self.model, batch, self.optimizer, self.neg_sampler)
        self._guard_divergence(loss_value)
        return loss_value

    def _with_retry(self, result: ResilientResult, epoch: int, b: int,
                    fn: Callable[[], object], what: str = ""):
        """Run ``fn()`` with snapshot-restore retries on transient faults.

        The one retry policy, for a training batch and for the evaluation
        pass alike (both mutate memory): restore the pre-call snapshot
        (draws are keyed, so the rerun repeats them),
        count the fault against its kernel site (past the context's
        threshold the site degrades to its reference path, so a
        persistent fault stops recurring), log the event, rerun.
        """
        snap = self._snapshot()
        ctx = getattr(self.g, "ctx", None)
        for attempt in range(MAX_RETRIES + 1):
            try:
                return fn()
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
                if attempt >= MAX_RETRIES:
                    raise
                result.events.append(
                    ResilienceEvent(
                        "retry", epoch, b, f"{exc.site}{what} (attempt {attempt + 1})"
                    )
                )
        raise AssertionError("unreachable")  # pragma: no cover

    # ---- the loop ---------------------------------------------------------------

    def _run(
        self,
        first: int,
        last: int,
        passes: int,
        reset: bool,
        eval_end: Optional[int] = None,
        resume: bool = False,
    ) -> ResilientResult:
        """The one recovery loop: *passes* sweeps over edges ``[first, last)``.

        A cursor ``(pass, window)`` walks the windows of each pass; at
        every position the loop advances the injector, checkpoints when
        due (a validation veto rolls back instead), runs the window's
        batch under :meth:`_with_retry`, and on divergence
        rewinds the cursor to the last checkpoint.  *reset* starts each
        pass from ``reset_state()`` (an epoch);
        *eval_end* scores ``[last, eval_end)`` after each pass; *resume*
        starts the cursor from the on-disk checkpoint.
        """
        if last > self.g.num_edges:
            raise ValueError(
                f"edge window [{first}, {last}) exceeds the graph's "
                f"{self.g.num_edges} edges"
            )
        result = ResilientResult()
        n_windows = -(-(last - first) // self.batch_size)
        p, w = 0, 0
        # True when the state at the loop head was restored from a
        # checkpoint (resume or rollback): the checkpoint already holds
        # the post-reset pass state, so the w==0 reset must be skipped.
        restored = False
        if resume:
            p, w = self._restore_checkpoint()
            restored = True
            result.events.append(
                ResilienceEvent("resume", p, w, f"resumed from {self.checkpoint_path}")
            )

        own_injector = self.injector is not None and hooks.active() is not self.injector
        if own_injector:
            hooks.install(self.injector)
        try:
            seconds = 0.0
            losses: Dict[int, float] = {}
            rollback_streak: Dict[Tuple[int, int], int] = {}
            while p < passes:
                if reset and w == 0 and not restored:
                    self.model.reset_state()
                restored = False
                injector = hooks.active()
                if injector is not None:
                    injector.advance(p, w)
                hooks.poke("trainer.batch", epoch=p, batch=w)
                rewind = None  # reason to roll back instead of advancing
                if (
                    w % self.checkpoint_every == 0
                    and self._write_checkpoint(result, p, w) == "validation"
                ):
                    # Corrupted state must never be trained on: the
                    # derived caches are dropped and the stream replays
                    # from the last good checkpoint (there is always one
                    # at the start of the current pass).
                    rewind = "state validation failed"
                else:
                    t0 = time.perf_counter()
                    lo = first + w * self.batch_size
                    hi = min(lo + self.batch_size, last)
                    try:
                        with _sampling_pass(self.model, p):
                            loss_value = self._with_retry(
                                result, p, w, lambda: self._run_batch(lo, hi)
                            )
                    except DivergenceError as exc:
                        key = (p, w)
                        rollback_streak[key] = rollback_streak.get(key, 0) + 1
                        if rollback_streak[key] > MAX_RETRIES:
                            raise
                        rewind = str(exc)
                if rewind is not None:
                    p, w = self._rollback(result, p, w, rewind)
                    # Replayed windows recompute their losses from the
                    # rollback target on; drop the abandoned entries.
                    losses = {k: v for k, v in losses.items() if k < w}
                    restored = True
                    continue
                losses[w] = loss_value
                seconds += time.perf_counter() - t0
                w += 1
                if w >= n_windows:
                    eval_s, ap = (0.0, 0.0)
                    if eval_end is not None and eval_end > last:
                        eval_s, ap = self._with_retry(
                            result, p, n_windows,
                            lambda: evaluate(
                                self.model, self.g, self.neg_sampler, self.batch_size,
                                start=last, stop=eval_end,
                            ),
                            " during evaluation",
                        )
                    mean_loss = float(np.mean(list(losses.values()))) if losses else 0.0
                    result.epochs.append(EpochResult(p, seconds, mean_loss, eval_s, ap))
                    seconds, losses = 0.0, {}
                    p, w = p + 1, 0
        finally:
            if own_injector:
                hooks.uninstall(self.injector)
        return result

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
        return self._run(0, train_end, epochs, reset=True, eval_end=eval_end, resume=resume)

    def fine_tune(
        self,
        start: int,
        stop: int,
        passes: int = 1,
        graph: Optional[TGraph] = None,
    ) -> ResilientResult:
        """Incrementally train on the edge window ``[start, stop)``.

        The continual-learning entry point (:mod:`repro.scenarios.continual`):
        unlike :meth:`train` it never resets model state — it
        *continues* the current trajectory on freshly
        arrived edges — and it accepts a replacement *graph* so a WAL
        tailer can grow the edge set between calls.  It is the same loop
        as :meth:`train`, so all of the resilience machinery applies:
        transient faults retry under snapshot-restore, an anchor
        checkpoint is written at the start of each pass (plus every
        ``checkpoint_every`` windows), and divergence rolls back to the
        last checkpoint under the same streak cap.

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
        if stop <= start or passes < 1:
            return ResilientResult()
        return self._run(start, stop, passes, reset=False)
