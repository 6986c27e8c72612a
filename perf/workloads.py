"""The six benchmark workloads: constants, input generators, one round each.

Everything a workload feeds the program is generated here from ``--seed``;
``repro`` is reached only through public constructors and methods
(``Experiment``, ``train_epoch`` / ``evaluate``, ``ServeRuntime`` /
``ServeCluster`` ``submit`` / ``step`` / ``drain`` / ``stats``).  The
serving driver loop below is a copy of ``repro.serve.replay.replay`` whose
arrival gaps are the constants in :data:`WORKLOADS` on the simulated clock,
*not* read from ``CostModel`` — recalibrating the cost model later cannot
silently change the offered load.

A *round* builds fresh state, runs the workload once and returns a
:class:`Round`: wall seconds per fixed *window* (one training batch; 20
consecutive driver-loop iterations, 4 on a cluster, with the final
``drain()`` as its own window), wall seconds per *step* (a training batch;
one ``step()``), a reading of the host's speed between every two windows
(``speed.py``), the work done, and a fingerprint of the outputs that must
repeat bit-for-bit in every round of the same seed.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench import trainer
from repro.bench.experiments import Experiment, ExperimentConfig
from repro.cluster import ClusterConfig, ServeCluster
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.data import DATASETS, get_dataset
from repro.integrity import array_digest
from repro.serve import EventBatch, ServeRuntime

from .speed import CALIB_LAYER, SpeedMeter
from .trace import ROOT_LAYER

__all__ = ["Round", "WORKLOADS", "TrainWorkload", "ServeWorkload", "CheckFailed"]

# ---- constants (echoed in the output) ------------------------------------------------

#: offline hyper-parameters: ``benchmarks/helpers.make_config`` (§5.1 scaled).
HYPER = dict(batch_size=300, num_layers=2, num_nbrs=10, num_heads=2, dim_time=32,
             dim_embed=32, dim_mem=32, sampling="recent", epochs=1)
#: offline graph: the ``reddit`` analog (549 nodes / 13 448 edges / d=172),
#: regenerated per seed.
DATASET = "reddit"
#: streaming graph: nodes, payload width, events per request, sampler fanout.
NUM_NODES, DIM, REQUEST_EVENTS, FANOUT = 2000, 32, 50, 10
#: endpoint popularity exponent: dedup, caches and shard load see reuse.
ZIPF_EXPONENT = 1.0
#: driver-loop iterations per timing window: about 50 ms of serving, so that
#: a speed reading is never further than that from the work it rescales.
WINDOW_ITERATIONS, WINDOW_ITERATIONS_CLUSTER = 20, 4
#: full-rung service time of one 50-event request on the simulated clock at
#: the cost model in force when the benchmark was defined; 1x offered load.
GAP_1X = 5.1e-3
#: poisoned stream: share of junk, share redelivered, shuffle window.
JUNK_SHARE, REDELIVERED_SHARE, SHUFFLE_WINDOW = 0.05, 0.05, 8


class CheckFailed(AssertionError):
    """An output check tripped: the program's result is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Round:
    """What one round measured and produced."""

    windows: List[float]
    steps: List[float]
    #: reference-kernel seconds: one reading before each window, one after the last.
    speed: List[float]
    #: the window each step ran in.
    step_window: List[int]
    cpu_s: float
    #: items applied to state (trained edges / committed events).
    updated: int
    #: rows scored on the read path (evaluated edges / answered request rows).
    scored: int
    #: operations offered (batches / requests) and those without a good answer.
    attempted: int
    not_ok: int
    #: operations with no correct outcome at all (counted as ``failed``).
    failed: int
    #: must be identical in every round of a seed.
    fingerprint: tuple
    #: window indices of the update phase (training only; serving: all).
    update_windows: Optional[range] = None
    #: deterministic per-round facts for the per-layer table and the checks.
    facts: Dict[str, float] = field(default_factory=dict)


class _NullTracer:
    """Stands in for :class:`trace.Tracer` on untraced rounds."""

    unit = -1

    def span(self, layer):
        return contextlib.nullcontext()


# ---- offline training / inference ----------------------------------------------------


class _BatchClock:
    """The negative sampler handed to the trainer, stamping batch starts.

    ``train_epoch`` / ``evaluate`` draw negatives exactly once at the top of
    every batch, so the draw times are the batch boundaries — per-batch
    windows without editing or re-implementing the trainer's loop.
    """

    def __init__(self, inner, tracer, meter: SpeedMeter):
        self._inner, self._tracer, self._meter = inner, tracer, meter
        #: when the previous batch ended / this one starts; the host's speed
        #: is read in between, outside both.
        self.ends: List[float] = []
        self.starts: List[float] = []

    def reset(self) -> None:
        self._inner.reset()

    def sample(self, n: int):
        self.ends.append(time.perf_counter())
        with self._tracer.span(CALIB_LAYER):
            self._meter.sample()
        self._tracer.unit += 1
        self.starts.append(time.perf_counter())
        return self._inner.sample(n)


def _batch_windows(starts: List[float], ends: List[float], end: float) -> List[float]:
    """Seconds from each batch's start to the next one's top (the last: to *end*)."""
    return [b - a for a, b in zip(starts, ends[1:] + [end])]


class TrainWorkload:
    """Train a slice with ``train_epoch``, then score the next with ``evaluate``."""

    kind = "train"

    def __init__(self, name: str, why: str, model: str, framework: str,
                 first_edge: int, train_batches: int, infer_batches: int):
        self.name, self.why = name, why
        self.model, self.framework = model, framework
        self.first_edge = first_edge
        self.train_batches, self.infer_batches = train_batches, infer_batches

    def sizes(self, scale: float) -> Dict[str, object]:
        batch = HYPER["batch_size"]
        train = max(1, round(self.train_batches * scale))
        infer = max(1, round(self.infer_batches * scale))
        a = self.first_edge
        return {"dataset": DATASET, "model": self.model, "framework": self.framework,
                "train_edges": [a, a + train * batch],
                "infer_edges": [a + train * batch, a + (train + infer) * batch], **HYPER}

    def generate(self, seed: int, scale: float, rep: int = 0):
        """Register and build this seed's graph; returns the dataset name.

        ``rep`` only changes the registry key, so set-up can be timed more
        than once against the dataset cache.
        """
        name = f"perf-{DATASET}-s{seed}-g{rep}"
        DATASETS[name] = replace(DATASETS[DATASET], name=name, seed=1000 + 3 * seed)
        get_dataset(name)
        return name

    def construct(self, inputs, seed: int, scale: float, workdir: str):
        cfg = ExperimentConfig(dataset=inputs, model=self.model, framework=self.framework,
                               placement="gpu", seed=seed, **HYPER)
        return Experiment(cfg)

    def run_round(self, exp, inputs, scale: float, tracer=None) -> Round:
        tracer = tracer or _NullTracer()
        sizes = self.sizes(scale)
        (a, b), (_, c) = sizes["train_edges"], sizes["infer_edges"]
        batch = HYPER["batch_size"]
        meter = SpeedMeter()
        clock = _BatchClock(exp.neg_sampler, tracer, meter)
        try:
            with tracer.span(ROOT_LAYER):
                cpu0 = time.process_time()
                _, loss = trainer.train_epoch(exp.model, exp.g, exp.optimizer, clock, batch,
                                              start=a, stop=b)
                mid = time.perf_counter()
                n_train = len(clock.starts)
                _, ap = trainer.evaluate(exp.model, exp.g, clock, batch, start=b, stop=c)
                end = time.perf_counter()
                with tracer.span(CALIB_LAYER):
                    meter.sample()
                cpu_s = time.process_time() - cpu0 - sum(meter.readings)
        finally:
            exp.close()
        train_w = _batch_windows(clock.starts[:n_train], clock.ends[:n_train], mid)
        infer_w = _batch_windows(clock.starts[n_train:], clock.ends[n_train:], end)
        finite = math.isfinite(loss) and math.isfinite(ap)
        batches = len(train_w) + len(infer_w)
        bad = 0 if finite else batches
        return Round(
            windows=train_w + infer_w, steps=train_w, speed=meter.take(),
            step_window=list(range(len(train_w))), cpu_s=cpu_s,
            updated=b - a, scored=c - b, attempted=batches, not_ok=bad, failed=bad,
            fingerprint=(loss, ap), update_windows=range(len(train_w)),
            facts={"train.infer_ap": ap, "train.loss": loss},
        )

    def check_round(self, rnd: Round, inputs) -> None:
        loss, ap = rnd.fingerprint
        _require(math.isfinite(loss), f"{self.name}: training loss is {loss}")
        _require(math.isfinite(ap) and 0.0 < ap <= 1.0, f"{self.name}: inference AP is {ap}")

    def check_final(self, rounds: List[Round], inputs, seed: int) -> None:
        pass


# ---- online serving ------------------------------------------------------------------


def zipf_stream(seed: int, num_events: int) -> EventBatch:
    """A clean stream: sorted exponential-gap times, Zipf-weighted endpoints."""
    rng = np.random.default_rng([seed, 0x5EED])
    weights = np.arange(1, NUM_NODES + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    weights /= weights.sum()
    # popularity rank is not the node id; who is popular is part of the
    # workload, not of the sample: drawn per seed, the hot nodes landed on
    # other shards each time and cluster throughput followed the seed
    # (per-seed values of two ten-seed sets correlated 0.74)
    ids = np.random.default_rng(0x1D5).permutation(NUM_NODES)
    ts = np.cumsum(rng.exponential(1.0, size=num_events))
    src = ids[rng.choice(NUM_NODES, size=num_events, p=weights)]
    dst = ids[rng.choice(NUM_NODES, size=num_events, p=weights)]
    payload = rng.standard_normal((num_events, DIM)).astype(np.float32)
    return EventBatch(np.arange(num_events), src, dst, ts, payload)


def poison(stream: EventBatch, seed: int) -> Tuple[EventBatch, float, int]:
    """Junk of five kinds, verbatim redeliveries, bounded shuffle.

    No clean event is altered, so a hardened runtime must recover the clean
    state.  Returns ``(arrival-ordered stream, lateness the shuffle needs,
    junk events added)``.
    """
    rng = np.random.default_rng([seed, 0xBAD])
    n = len(stream)
    n_junk = int(round(JUNK_SHARE * n))
    junk = EventBatch(
        n + 1_000_000 + np.arange(n_junk),
        rng.integers(0, NUM_NODES, size=n_junk),
        rng.integers(0, NUM_NODES, size=n_junk),
        rng.uniform(stream.ts[0], stream.ts[-1], size=n_junk),
        rng.standard_normal((n_junk, DIM)).astype(np.float32),
    )
    kind = np.arange(n_junk) % 5
    # place junk by its (still finite) time before breaking it
    at = junk.ts.copy()
    junk.ts[kind == 0] = np.nan
    junk.ts[kind == 1] = -1.0 - junk.ts[kind == 1]
    junk.src[kind == 2] = NUM_NODES + 1
    junk.dst[kind == 3] = -1
    junk.payload[kind == 4, 0] = np.inf
    dup = stream.take(np.sort(rng.choice(n, size=int(round(REDELIVERED_SHARE * n)),
                                         replace=False)))
    merged = EventBatch.concat([stream, junk, dup])
    order = np.argsort(np.concatenate([stream.ts, at, dup.ts]), kind="stable")
    merged = merged.take(order)
    perm = np.arange(len(merged))
    lateness = 0.0
    for start in range(0, len(merged), SHUFFLE_WINDOW):
        block = perm[start:start + SHUFFLE_WINDOW]
        span = merged.ts[block]
        span = span[np.isfinite(span) & (span >= 0)]
        if len(span) > 1:
            lateness = max(lateness, float(span.max() - span.min()))
        rng.shuffle(block)
    return merged.take(perm), lateness, n_junk


def _requests(stream: EventBatch) -> List[EventBatch]:
    """Consecutive requests of ``REQUEST_EVENTS`` events, in arrival order."""
    return [stream.take(np.arange(a, min(a + REQUEST_EVENTS, len(stream))))
            for a in range(0, len(stream), REQUEST_EVENTS)]


@dataclass
class _StreamInputs:
    clean: EventBatch
    batches: List[EventBatch]
    lateness: float
    junk: int
    #: (memory, mailbox) digests of a single-runtime replay, computed on demand.
    reference: Optional[Tuple[str, str]] = None


def drive(rt, batches: List[EventBatch], gap: float, deadline: float, tracer,
          meter: Optional[SpeedMeter] = None, window_iterations: int = WINDOW_ITERATIONS):
    """Offer *batches* every *gap* simulated seconds; serve until drained.

    Event-driven single-server loop: deliver every arrival whose scheduled
    time has passed (backdated, so queueing delay eats the deadline), then
    serve one request; idle-advance otherwise.  Open loop on the simulated
    clock — the schedule does not slow when the server does.  Between every
    two windows, outside both, *meter* reads the host's speed.
    """
    clock = time.perf_counter
    windows: List[float] = []
    steps: List[float] = []
    step_window: List[int] = []

    def read_speed() -> None:
        if meter is not None:
            with tracer.span(CALIB_LAYER):
                meter.sample()

    i, n, iterations = 0, len(batches), 0
    read_speed()
    window_start = clock()
    while i < n or rt.admission.depth:
        now = rt.clock.now()
        while i < n and i * gap <= now:
            tracer.unit = i
            rt.submit(batches[i], deadline=deadline, arrival=i * gap)
            i += 1
        if rt.admission.depth:
            tracer.unit = rt.admission.peek().rid
            t = clock()
            rt.step()
            steps.append(clock() - t)
            step_window.append(len(windows))
        elif i < n:
            rt.clock.advance_to(i * gap)
        iterations += 1
        if iterations % window_iterations == 0:
            windows.append(clock() - window_start)
            read_speed()
            window_start = clock()
    tracer.unit = n
    rt.drain()
    windows.append(clock() - window_start)  # tail iterations + drain()
    read_speed()
    return windows, steps, step_window


class ServeWorkload:
    """Replay a stream through one ``ServeRuntime`` or a ``ServeCluster``."""

    kind = "serve"

    def __init__(self, name: str, why: str, events: int, gap: float, deadline: float,
                 max_queue: int, poisoned: bool = False, shards: int = 0, factor: int = 1):
        self.name, self.why = name, why
        self.events, self.gap, self.deadline = events, gap, deadline
        self.max_queue, self.poisoned = max_queue, poisoned
        self.shards, self.factor = shards, factor

    def sizes(self, scale: float) -> Dict[str, object]:
        events = max(REQUEST_EVENTS, int(self.events * scale) // REQUEST_EVENTS * REQUEST_EVENTS)
        return {"nodes": NUM_NODES, "payload_dim": DIM, "events": events,
                "events_per_request": REQUEST_EVENTS, "gap_sim_s": self.gap,
                "deadline_sim_s": self.deadline, "max_queue": self.max_queue,
                "poisoned": self.poisoned, "shards": self.shards,
                "replication_factor": self.factor, "zipf_exponent": ZIPF_EXPONENT,
                "sampler_fanout": FANOUT}

    def generate(self, seed: int, scale: float, rep: int = 0) -> _StreamInputs:
        clean = zipf_stream(seed, self.sizes(scale)["events"])
        offered, lateness, junk = poison(clean, seed) if self.poisoned else (clean, 0.0, 0)
        return _StreamInputs(clean, _requests(offered), lateness, junk)

    def _runtime(self, inputs: _StreamInputs, seed: int, durable_dir: Optional[str],
                 deadline: float, max_queue: int) -> ServeRuntime:
        clean = inputs.clean
        g = TGraph(clean.src, clean.dst, clean.ts, num_nodes=NUM_NODES)
        return ServeRuntime(
            g, TContext(g), Memory(NUM_NODES, DIM), TSampler(FANOUT, seed=seed),
            mailbox=Mailbox(NUM_NODES, DIM), deadline=deadline, max_queue=max_queue,
            lateness=inputs.lateness, durable_dir=durable_dir, durable_fsync="batch",
            snapshot_every=256,
        )

    def construct(self, inputs: _StreamInputs, seed: int, scale: float, workdir: str):
        if not self.shards:
            return self._runtime(inputs, seed, workdir, self.deadline, self.max_queue)
        clean = inputs.clean
        g = TGraph(clean.src, clean.dst, clean.ts, num_nodes=NUM_NODES)
        config = ClusterConfig(num_shards=self.shards, replication_factor=self.factor,
                               partition="hash", seed=0, durable_root=workdir)
        return ServeCluster(g, TContext(g), TSampler(FANOUT, seed=seed), DIM, config=config,
                            deadline=self.deadline, max_queue=self.max_queue)

    def run_round(self, rt, inputs: _StreamInputs, scale: float, tracer=None) -> Round:
        tracer = tracer or _NullTracer()
        meter = SpeedMeter()
        try:
            with tracer.span(ROOT_LAYER):
                cpu0 = time.process_time()
                timed = drive(rt, inputs.batches, self.gap, self.deadline, tracer, meter,
                              WINDOW_ITERATIONS_CLUSTER if self.shards else WINDOW_ITERATIONS)
                cpu_s = time.process_time() - cpu0 - sum(meter.readings)
            return self._collect(rt, inputs, timed, meter.take(), cpu_s)
        finally:
            rt.close()

    def _collect(self, rt, inputs, timed, speed, cpu_s) -> Round:
        windows, steps, step_window = timed
        stats = rt.stats()
        results = rt.results
        offered = len(inputs.batches)
        answered = [r for r in results
                    if r.status == "ok" and (r.valid is None or bool(r.valid.all()))]
        shed = sum(r.status == "shed" for r in results)
        timeout = sum(r.status == "timeout" for r in results)
        if self.shards:
            memory_digest = array_digest(*rt.memory_image())
            mail, mtime, cursor = rt.mailbox_image()
            mailbox_digest = (array_digest(mail, mtime) if cursor is None
                              else array_digest(mail, mtime, cursor))
            applied = stats["ingest:released"]
            violations = []
        else:
            memory_digest = rt.memory.state_digest()
            mailbox_digest = rt.mailbox.state_digest()
            applied = stats["commit:events_applied"]
            violations = rt.memory.validate() + rt.mailbox.validate()
        latency = rt.ctx.stats().latency
        rungs = {k.split(":", 1)[1]: v for k, v in stats.items() if k.startswith("ladder:")}
        quarantined = sum(v for k, v in stats.items() if k.startswith("ingest:quarantined:"))
        facts = {
            "serve.sim_latency_ms_p50": latency.p50 * 1e3 if latency else 0.0,
            "serve.sim_latency_ms_p99": latency.p99 * 1e3 if latency else 0.0,
            "serve.ingest.push.pushed": stats["ingest:pushed"],
            "serve.ingest.push.released": stats["ingest:released"],
            "serve.ingest.push.duplicates": stats["ingest:duplicates"],
            "serve.ingest.push.quarantined": quarantined,
            "cluster.rpc.call.retries": stats.get("rpc:retries", 0),
            "cluster.replication.ship.parked": stats.get("cluster:deferred_applies", 0),
            # facts the checks read (not reported)
            "_accepted": stats["ingest:accepted"], "_shed": shed, "_timeout": timeout,
            "_results": len(results), "_violations": len(violations),
            "_zero_rows": stats.get("cluster:zero_rows", 0),
            "_rollbacks": stats.get("cluster:rollbacks", stats.get("commit:rollbacks", 0)),
            **{f"_rung_{k}": v for k, v in rungs.items()},
        }
        return Round(
            windows=windows, steps=steps, speed=speed, step_window=step_window, cpu_s=cpu_s,
            updated=int(applied), scored=sum(len(r.scores) for r in answered),
            attempted=offered, not_ok=offered - len(answered),
            # an explicit shed / timeout is an answer; a missing or invalid one is not
            failed=offered - len(answered) - shed - timeout,
            fingerprint=(memory_digest, mailbox_digest, len(steps), len(windows)),
            facts=facts,
        )

    # ---- output checks -----------------------------------------------------------

    def check_round(self, rnd: Round, inputs: _StreamInputs) -> None:
        f, name = rnd.facts, self.name
        pushed = f["serve.ingest.push.pushed"]
        _require(f["_results"] == rnd.attempted,
                 f"{name}: {f['_results']} answers for {rnd.attempted} requests offered")
        _require(pushed == f["_accepted"] + f["serve.ingest.push.duplicates"]
                 + f["serve.ingest.push.quarantined"],
                 f"{name}: ingest ledger does not balance ({pushed} pushed)")
        _require(f["_violations"] == 0, f"{name}: Memory/Mailbox.validate() reports violations")
        _require(f["_rollbacks"] == 0, f"{name}: {f['_rollbacks']} commits rolled back")
        _require(rnd.failed == 0, f"{name}: {rnd.failed} requests unanswered or invalid")
        if self.poisoned:
            return
        clean = len(inputs.clean)
        _require(rnd.updated == clean, f"{name}: applied {rnd.updated} of {clean} events offered")
        _require(rnd.not_ok == 0, f"{name}: {rnd.not_ok} requests shed, timed out or invalid")
        _require(f.get("_rung_full", 0) == rnd.attempted,
                 f"{name}: rung mix is not 100% full")
        _require(f["_zero_rows"] == 0, f"{name}: zero_rows == {f['_zero_rows']}")

    def reference_digests(self, inputs: _StreamInputs, seed: int) -> Tuple[str, str]:
        """State a single ``ServeRuntime`` reaches on the same clean stream."""
        if inputs.reference is None:
            lone = replace(inputs, lateness=0.0)
            with self._runtime(lone, seed, None, 1.0, 1 << 30) as rt:
                drive(rt, _requests(inputs.clean), GAP_1X, 1.0, _NullTracer())
                inputs.reference = (rt.memory.state_digest(), rt.mailbox.state_digest())
        return inputs.reference

    def check_final(self, rounds: List[Round], inputs: _StreamInputs, seed: int) -> None:
        """Final state equals a clean single-runtime replay (once per run).

        Holds for the poisoned stream too: poisoning adds garbage and
        permutes within the lateness bound, so the hardened runtime must
        commit exactly the clean events it did not shed.  That equality is
        only checkable when nothing was shed, i.e. not on ``serve_overload``,
        whose state is checked for round-to-round identity instead.
        """
        if self.poisoned:
            return
        got = rounds[-1].fingerprint[:2]
        want = self.reference_digests(inputs, seed)
        _require(got == want, f"{self.name}: final memory/mailbox state differs from a "
                              f"single-ServeRuntime replay of the same stream")


# ---- the six workloads ---------------------------------------------------------------

WORKLOADS = {w.name: w for w in [
    TrainWorkload(
        "train_tgat_opt",
        "TGAT tglite+opt: dedup/memoize/precompute on, so tensor/nn attention and backward remain",
        model="tgat", framework="tglite+opt", first_edge=6000, train_batches=4, infer_batches=8),
    TrainWorkload(
        "train_tgn_plain",
        "TGN plain tglite: bypasses every optimisation operator; only offline Memory/Mailbox/GRU user",
        model="tgn", framework="tglite", first_edge=3000, train_batches=1, infer_batches=1),
    ServeWorkload(
        "serve_clean",
        "one ServeRuntime with WAL, clean stream at 1x load: sample, score, ingest, commit, log on every request",
        events=20_000, gap=GAP_1X, deadline=1.0, max_queue=1 << 30),
    ServeWorkload(
        "serve_overload",
        "same runtime, poisoned stream at 16x load: admission, ladder descent, quarantine, dedup, reorder do the work",
        events=40_000, gap=GAP_1X / 16, deadline=8e-3, max_queue=16, poisoned=True),
    ServeWorkload(
        "cluster_s4_f3",
        "4 shards x replication 3: every commit shipped, logged and digested on three members (write amplification)",
        events=4_000, gap=GAP_1X / 16, deadline=1.0, max_queue=1 << 30, shards=4, factor=3),
    ServeWorkload(
        "cluster_s16_f1",
        "16 shards x replication 1: every request scatter-gathers and splits its commit 16 ways (fan-out)",
        events=6_000, gap=GAP_1X / 16, deadline=1.0, max_queue=1 << 30, shards=16, factor=1),
]}
