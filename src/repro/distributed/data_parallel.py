"""Simulated multi-GPU data-parallel training (§7 future work).

The paper defers multi-GPU support; this module implements the standard
synchronous data-parallel scheme on the simulated device model so the
design (and its scaling behaviour) can be explored without hardware:

* a batch's edges are split into ``num_replicas`` contiguous shards;
* each shard's forward/backward runs against the shared parameters, with
  per-shard wall time recorded;
* gradients are averaged (the all-reduce), charging the interconnect cost
  of a ring all-reduce — ``2 (N-1)/N x param_bytes / bandwidth`` — to the
  simulated clock;
* the optimizer steps once on the synchronized gradients.

Because shards execute sequentially on one host, *measured* wall time is
the serial sum; the **simulated parallel step time** is
``max(shard times) + all-reduce time``, which is what a real N-GPU
deployment would see for balanced shards.  Numerical results are exactly
those of synchronous large-batch SGD, which the tests verify against
single-replica training.

Memory-based models (TGN/JODIE/APAN) additionally mutate global state
per shard; data-parallel semantics for them require partitioned memory
servers (out of scope here, as in the paper) — the trainer therefore
accepts any model but documents that staleness applies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core import TBatch, TGraph, iter_batches
from ..data import NegativeSampler
from ..nn import Optimizer, link_prediction_loss
from ..resilience.hooks import poke as _poke

__all__ = ["ShardResult", "StepResult", "SimulatedDataParallel"]


@dataclass
class ShardResult:
    """Timing/loss for one replica's shard within a step."""

    replica: int
    edges: int
    seconds: float
    loss: float
    #: True when this shard's replica crashed and the work was
    #: redistributed to the surviving replicas (fault simulation).
    redistributed: bool = False


@dataclass
class StepResult:
    """One synchronous data-parallel step."""

    shards: List[ShardResult] = field(default_factory=list)
    allreduce_seconds: float = 0.0

    @property
    def serial_seconds(self) -> float:
        return sum(s.seconds for s in self.shards)

    @property
    def crashed_replicas(self) -> List[int]:
        """Replicas that crashed this step (their shards were redistributed)."""
        return [s.replica for s in self.shards if s.redistributed]

    @property
    def redistribution_seconds(self) -> float:
        """Simulated extra step time from re-running crashed shards.

        Each crashed shard's work is split evenly across the survivors,
        so the parallel clock is charged ``crashed_time / num_survivors``
        on top of the surviving critical path.
        """
        crashed = sum(s.seconds for s in self.shards if s.redistributed)
        if crashed == 0.0:
            return 0.0
        survivors = max(1, sum(1 for s in self.shards if not s.redistributed))
        return crashed / survivors

    @property
    def simulated_parallel_seconds(self) -> float:
        longest = max((s.seconds for s in self.shards if not s.redistributed), default=0.0)
        return longest + self.redistribution_seconds + self.allreduce_seconds

    @property
    def loss(self) -> float:
        total = sum(s.edges for s in self.shards)
        if total == 0:
            return 0.0
        return sum(s.loss * s.edges for s in self.shards) / total


class SimulatedDataParallel:
    """Synchronous data-parallel driver over the simulated device model.

    Args:
        model: a trainer-compatible model (``forward(batch)->(pos,neg)``).
        optimizer: optimizer over the model's parameters.
        num_replicas: simulated GPU count (shards per batch).
        interconnect_bandwidth: modeled all-reduce bytes/second (NVLink-ish
            values are much higher than the PCIe host-transfer model).
    """

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        num_replicas: int,
        interconnect_bandwidth: float = 1.0e9,
    ):
        if num_replicas < 1:
            raise ValueError("need at least one replica")
        self.model = model
        self.optimizer = optimizer
        self.num_replicas = num_replicas
        self.interconnect_bandwidth = interconnect_bandwidth
        self._param_bytes = sum(p.data.nbytes for p in model.parameters())

    # ---- cost model -----------------------------------------------------------

    def allreduce_seconds(self) -> float:
        """Ring all-reduce transfer time for one gradient synchronization."""
        if self.num_replicas == 1:
            return 0.0
        volume = 2.0 * (self.num_replicas - 1) / self.num_replicas * self._param_bytes
        return volume / self.interconnect_bandwidth

    # ---- stepping --------------------------------------------------------------

    def _shard_ranges(self, batch: TBatch) -> List[Tuple[int, int]]:
        bounds = np.linspace(batch.start, batch.stop, self.num_replicas + 1).astype(int)
        return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def train_step(self, batch: TBatch, neg_sampler: NegativeSampler) -> StepResult:
        """One synchronous step over a batch split into replica shards.

        Crashed replicas (fault injection via the ``worker.crash`` site)
        have their shard redistributed to the survivors: the shard still
        executes — on this serial substrate, execution *is* the
        redistribution — producing bit-identical gradients, while the
        simulated parallel clock is charged the survivors' extra work
        (see :attr:`StepResult.redistribution_seconds`).  Stragglers
        (``worker.straggler``) inflate their shard's simulated time.
        """
        self.model.train()
        self.optimizer.zero_grad()
        result = StepResult()
        g = batch.g
        shards = self._shard_ranges(batch)
        crashed = _poke("worker.crash", num_replicas=len(shards)) or frozenset()
        stragglers = _poke("worker.straggler", num_replicas=len(shards)) or {}
        for replica, (lo, hi) in enumerate(shards):
            shard = TBatch(g, lo, hi)
            shard.neg_nodes = neg_sampler.sample(len(shard))
            t0 = time.perf_counter()
            pos, neg = self.model(shard)
            loss = link_prediction_loss(pos, neg)
            # Scale so accumulated gradients equal the shard-size-weighted
            # average — the semantics of synchronous all-reduce SGD.
            (loss * (len(shard) / len(batch))).backward()
            seconds = time.perf_counter() - t0
            seconds *= stragglers.get(replica, 1.0)
            result.shards.append(
                ShardResult(replica, len(shard), seconds, loss.item(),
                            redistributed=replica in crashed)
            )
        result.allreduce_seconds = self.allreduce_seconds()
        self.optimizer.step()
        return result

    def train_epoch(
        self,
        g: TGraph,
        neg_sampler: NegativeSampler,
        batch_size: int,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> Tuple[float, float, float]:
        """Train over an edge range.

        Returns ``(serial_seconds, simulated_parallel_seconds, mean_loss)``.
        """
        neg_sampler.reset()
        serial = parallel = 0.0
        losses = []
        for batch in iter_batches(g, batch_size, start=start, stop=stop):
            step = self.train_step(batch, neg_sampler)
            serial += step.serial_seconds
            parallel += step.simulated_parallel_seconds
            losses.append(step.loss)
        return serial, parallel, float(np.mean(losses)) if losses else 0.0

    def scaling_efficiency(self, step: StepResult) -> float:
        """Parallel efficiency of a step: serial / (N * simulated parallel)."""
        denom = self.num_replicas * step.simulated_parallel_seconds
        return step.serial_seconds / denom if denom > 0 else 0.0
