"""Train-on-serve-log continual learning: the serve→train closed loop.

The serving runtime write-ahead logs every committed
:class:`~repro.serve.EventBatch` (``repro.durable``).  The
:class:`ContinualLearner` tails that log with a prefix-consistent
:class:`~repro.durable.WALCursor`, converts committed records back into
training edges, and fine-tunes a link model online through
:meth:`~repro.bench.ResilientTrainer.fine_tune` — then hot-swaps the
updated embedding table into the server
(:meth:`~repro.serve.ServeRuntime.swap_model`).

**Staleness budget.**  Retraining is triggered by *model staleness*: the
gap (in event time) between the server's committed watermark and the
newest event the published model was trained through.  ``budget=0``
retrains on every sync that sees new committed data; a larger budget
batches more events per fine-tune (cheaper, staler); ``budget=inf``
never retrains — the frozen baseline.  The learner only ever reads
*committed* records (cursor guarantee), and the runtime checks a batch
before it logs it, so a quarantined batch can never train the model.

:func:`run_closed_loop` is the harness the tests, the ``scenarios`` CLI
subcommand, and the drift benchmark share: it pretrains a base model on
a warmup prefix of a :class:`~repro.scenarios.base.LabeledStream`, then
replays the rest through a durable :class:`~repro.serve.ServeRuntime`
in one of three modes — ``frozen`` (no learner), ``continual`` (WAL
tail + hot swap), ``oracle`` (offline retraining on the whole stream
before serving, the upper bound) — and scores the served predictions
against the stream's ground-truth labels.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional

import numpy as np

from ..bench.resilient import ResilientResult, ResilientTrainer
from ..core import Mailbox, Memory, TContext, TGraph, TSampler
from ..core.state import state_image
from ..data import NegativeSampler, derive_rng
from ..durable import KIND_BATCH, WALCursor
from ..integrity.digest import array_digest
from ..nn import Adam, Module, Parameter
from ..serve import EventBatch, ServeRuntime, replay, split_batches
from ..tensor import manual_seed
from .base import LabeledStream
from .score import accuracy_under_drift

__all__ = [
    "EmbeddingLinkModel",
    "ContinualLearner",
    "run_closed_loop",
]


class EmbeddingLinkModel(Module):
    """Minimal trainer-compatible link model: one embedding table.

    Scores a pair as the dot product of its node embeddings.  Small
    enough to fine-tune in milliseconds inside the serving loop, and its
    single parameter *is* the table :meth:`~repro.serve.ServeRuntime.swap_model`
    installs — the model the learner trains is literally the model the
    server serves.
    """

    def __init__(self, num_nodes: int, dim: int = 16, seed: int = 0,
                 init_scale: float = 0.1):
        super().__init__()
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)
        rng = derive_rng(seed, "continual", "model-init")
        self.emb = Parameter(
            (rng.standard_normal((num_nodes, dim)) * init_scale).astype(np.float32)
        )

    def forward(self, batch):
        src = np.asarray(batch.src)
        dst = np.asarray(batch.dst)
        neg = np.asarray(batch.neg_nodes)
        e_src = self.emb[src]
        pos = (e_src * self.emb[dst]).sum(dim=1)
        neg_scores = (e_src * self.emb[neg]).sum(dim=1)
        return pos, neg_scores

    def reset_state(self) -> None:
        """No recurrent state — the table is the whole model."""

    def embeddings(self) -> np.ndarray:
        """A float32 copy of the table, ready for ``swap_model``."""
        return np.array(self.emb.data, dtype=np.float32, copy=True)


class ContinualLearner:
    """Tails a serving WAL and fine-tunes the model under a staleness budget.

    Args:
        model: the :class:`EmbeddingLinkModel` (shared with the server
            via hot swaps).
        optimizer: optimizer over the model's parameters (its moments
            persist across syncs — fine-tuning continues one trajectory).
        neg_sampler: negative sampler for the fine-tuning loss.
        wal_dir: the serving runtime's ``durable_dir`` to tail.
        num_nodes: node-id space of the training graph.
        checkpoint_dir: home of the fine-tuner's rolling checkpoint.
        staleness_budget: retrain when
            ``server_watermark - published_watermark`` exceeds this (in
            event-time units); ``0`` retrains on any new data, ``inf``
            never (frozen).
        batch_size: fine-tuning window size (edges per optimizer step).
        passes: sweeps over each new-edge window per retrain.
        initial_watermark: newest event time the starting model was
            pretrained through.
        cursor_name: WAL cursor identity (so a restarted learner
            resumes its own position).
    """

    def __init__(
        self,
        model,
        optimizer,
        neg_sampler: NegativeSampler,
        wal_dir: str,
        num_nodes: int,
        checkpoint_dir: str,
        staleness_budget: float = 0.0,
        batch_size: int = 64,
        passes: int = 1,
        initial_watermark: float = float("-inf"),
        cursor_name: str = "learner",
        injector=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.neg_sampler = neg_sampler
        self.num_nodes = int(num_nodes)
        self.checkpoint_dir = checkpoint_dir
        self.staleness_budget = float(staleness_budget)
        self.batch_size = int(batch_size)
        self.passes = int(passes)
        self.injector = injector
        os.makedirs(checkpoint_dir, exist_ok=True)
        self.cursor = WALCursor(wal_dir, name=cursor_name)
        self._batches: List[EventBatch] = []
        self._num_events = 0
        self.trained_end = 0
        self.server_watermark = float("-inf")
        self.published_watermark = float(initial_watermark)
        self.trainer: Optional[ResilientTrainer] = None
        self.fine_tunes: List[ResilientResult] = []
        self.syncs = 0
        self.swaps = 0

    # ---- the tail → train → swap loop --------------------------------------------

    def sync(self, runtime: ServeRuntime) -> bool:
        """Poll the WAL once; retrain + hot-swap if over budget.

        Called between served requests (the ``replay`` ``on_result``
        hook).  Returns True when a model swap happened.
        """
        self.syncs += 1
        for rec in self.cursor.poll():
            if rec.kind != KIND_BATCH:
                continue
            batch = EventBatch.from_arrays(rec.arrays)
            if not len(batch):
                continue
            self._batches.append(batch)
            self._num_events += len(batch)
            watermark = float(rec.meta.get("watermark", batch.ts.max()))
            self.server_watermark = max(self.server_watermark, watermark)
        if self._num_events <= self.trained_end:
            return False
        staleness = self.server_watermark - self.published_watermark
        if staleness <= self.staleness_budget:
            return False
        self._retrain(runtime)
        return True

    def _retrain(self, runtime: ServeRuntime) -> None:
        events = EventBatch.concat(self._batches)
        g = TGraph(events.src, events.dst, events.ts, num_nodes=self.num_nodes)
        if self.trainer is None:
            self.trainer = ResilientTrainer(
                self.model,
                g,
                self.optimizer,
                self.neg_sampler,
                self.batch_size,
                checkpoint_dir=self.checkpoint_dir,
                checkpoint_every=1_000_000,  # one anchor per fine-tune call
                injector=self.injector,
            )
            result = self.trainer.fine_tune(
                self.trained_end, self._num_events, passes=self.passes
            )
        else:
            result = self.trainer.fine_tune(
                self.trained_end, self._num_events, passes=self.passes, graph=g
            )
        self.fine_tunes.append(result)
        self.trained_end = self._num_events
        self.published_watermark = self.server_watermark
        runtime.swap_model(
            self.model.embeddings(), watermark=self.published_watermark
        )
        self.swaps += 1

    def stats(self) -> Dict:
        return {
            "syncs": self.syncs,
            "swaps": self.swaps,
            "events_seen": self._num_events,
            "events_trained": self.trained_end,
            "server_watermark": self.server_watermark,
            "published_watermark": self.published_watermark,
            "staleness": max(
                0.0, self.server_watermark - self.published_watermark
            ),
            "cursor": self.cursor.position(),
        }


def run_closed_loop(
    stream: LabeledStream,
    mode: str = "continual",
    staleness_budget: float = 0.0,
    warmup_frac: float = 0.25,
    dim: int = 16,
    lr: float = 0.05,
    batch_size: int = 64,
    request_size: int = 50,
    passes: int = 2,
    pretrain_passes: int = 4,
    seed: int = 0,
    workdir: Optional[str] = None,
    load: float = 1.0,
    num_windows: int = 10,
) -> Dict:
    """Serve a scenario stream end to end and score it against ground truth.

    The first ``warmup_frac`` of the stream is the historical log: the
    model pretrains on it offline, and those events are never served.
    The rest replays through a durable :class:`ServeRuntime` whose
    per-request scores are collected back onto the stream's event
    positions.

    Modes:
        * ``'frozen'`` — the pretrained model serves unchanged.
        * ``'continual'`` — a :class:`ContinualLearner` tails the
          serving WAL between requests and hot-swaps under
          *staleness_budget*.
        * ``'oracle'`` — the model additionally trains offline over the
          *entire* stream (drift included) before serving: the
          hindsight upper bound.

    Returns a dict with per-event ``scores`` (NaN for warmup/unserved),
    the :func:`accuracy_under_drift` ``summary``, the runtime ``stats``,
    the committed-state ``state_digest``, and learner stats when present.
    Deterministic per ``(stream, mode, seed)``.
    """
    if mode not in ("frozen", "continual", "oracle"):
        raise ValueError(f"mode must be frozen|continual|oracle, got {mode!r}")
    manual_seed(seed)
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix=f"closed-loop-{mode}-")
    spec = stream.spec
    ev = stream.events
    n = len(stream)
    num_nodes = spec.num_nodes
    warmup_end = int(n * warmup_frac)
    if not 0 < warmup_end < n:
        raise ValueError(f"warmup [0, {warmup_end}) must split the stream")

    model = EmbeddingLinkModel(num_nodes, dim=dim, seed=seed)
    optimizer = Adam(model.parameters(), lr=lr)
    items_lo = int(stream.meta.get("items_lo", 0))
    neg_sampler = NegativeSampler(
        np.arange(items_lo, num_nodes, dtype=np.int64), seed=spec.seed + 1
    )
    graph = TGraph(ev.src, ev.dst, ev.ts, num_nodes=num_nodes)
    trainer = ResilientTrainer(
        model, graph, optimizer, neg_sampler, batch_size,
        checkpoint_dir=os.path.join(workdir, "pretrain"),
        checkpoint_every=1_000_000,
    )
    pretrain = trainer.fine_tune(0, warmup_end, passes=pretrain_passes)
    if mode == "oracle":
        trainer.fine_tune(warmup_end, n, passes=passes)

    ctx = TContext(graph)
    memory = Memory(num_nodes, dim)
    mailbox = Mailbox(num_nodes, dim)
    sampler = TSampler(8, seed=5)
    wal_dir = os.path.join(workdir, "serve-wal")
    runtime = ServeRuntime(
        graph, ctx, memory, sampler, mailbox=mailbox,
        deadline=1.0e9, max_queue=1 << 30,
        durable_dir=wal_dir, durable_fsync="always", snapshot_every=None,
    )
    pretrain_watermark = float(ev.ts[warmup_end - 1])
    runtime.swap_model(model.embeddings(), watermark=pretrain_watermark)

    learner = None
    on_result = None
    if mode == "continual":
        learner = ContinualLearner(
            model, optimizer, neg_sampler,
            wal_dir=wal_dir, num_nodes=num_nodes,
            checkpoint_dir=os.path.join(workdir, "learner"),
            staleness_budget=staleness_budget,
            batch_size=batch_size, passes=passes,
            initial_watermark=pretrain_watermark,
        )

        def on_result(rt, _result):
            learner.sync(rt)

    serve_stream = ev.take(np.arange(warmup_end, n))
    batches = split_batches(serve_stream, request_size)
    results = replay(runtime, batches, load=load, on_result=on_result)
    if learner is not None:
        learner.sync(runtime)  # what drain() committed after the last request

    scores = np.full(n, np.nan, dtype=np.float64)
    for result in results:
        if result.scores is None:
            continue
        lo = warmup_end + result.rid * request_size
        hi = min(lo + request_size, n)
        scores[lo:hi] = np.asarray(result.scores, dtype=np.float64)

    summary = accuracy_under_drift(stream, scores, num_windows=num_windows)
    out = {
        "mode": mode,
        "staleness_budget": staleness_budget,
        "warmup_end": warmup_end,
        "scores": scores,
        "summary": summary,
        "stats": runtime.stats(),
        # sha256 over every committed-state table: proves model hot-swaps
        # leave serve state bit-identical to a swap-free replay.
        "state_digest": array_digest(
            *state_image(runtime.memory, runtime.mailbox).values()
        ),
        "model_version": runtime.model_version,
        "pretrain_loss": pretrain.epochs[-1].train_loss if pretrain.epochs else None,
        "results": len(results),
        "learner": learner.stats() if learner is not None else None,
    }
    runtime.close()
    return out
