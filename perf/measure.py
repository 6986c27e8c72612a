"""The measurement protocol: rounds, the window-filtered estimator, checks.

Fixed, no options: one process per workload; one untimed warm-up round
(the first round of a process is ~3x slow here — page faults on fresh
memory), then timed rounds on fresh state until ``--seconds`` is used up,
``gc.collect()`` between rounds.

The host's CPU speed moves by up to 2x for seconds to minutes at a time, so
every window and step is first rescaled to the reference speed by the
kernel timings taken around it (``speed.py``).  What is left is ±5-10 %
per round and now and then 2-3x, so nothing is reported from a single round:

* **window-filtered time** ``T̃``: every round performs identical work, so
  window *w* (one training batch; ~50 ms of driver-loop iterations) does the
  same thing in every round.  ``T̃ = Σ_w median_r(seconds[r][w])`` — a stall that
  hits one window of one round is voted out by the other rounds, where a
  plain per-round median keeps whichever stalls its middle round had.
* **step percentiles** the same way: step *i* is the same request in every
  round, so each step's time is first reduced to its median across rounds
  and the percentiles are taken over steps.  p90 then reflects which
  *requests* are slow (a WAL fsync, a snapshot, a 16-way gather), not which
  moments the host was busy.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from . import speed
from . import trace as tracing
from .workloads import CheckFailed, Round

__all__ = ["END_TO_END", "per_layer_names", "is_deterministic", "keep_freed_memory_mapped",
           "run_workload", "CheckFailed"]

#: timed rounds below which medians mean little; reached even if it overruns.
MIN_ROUNDS = 3
#: generation / import are each timed this many times for ``setup_s``.
SETUP_REPEATS = 5
#: modules whose import a user of the benchmarked paths pays for.
IMPORTS = "repro.bench.experiments, repro.bench.trainer, repro.serve, repro.cluster"

#: end-to-end metrics: name -> (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "update_per_s": ("1/s", "higher"),
    "score_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "ok_share": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: end-to-end metrics that are not seconds, so not rescaled to the reference speed.
_UNSCALED = ("ok_share", "peak_rss_mb")

#: per-layer extras beyond ``<layer>.self_s`` / ``<layer>.calls``: name -> unit.
EXTRAS = {
    "core.block.gather.rows": "count",
    "core.sampler.sample.rows_in": "count",
    "core.sampler.sample.nbrs_out": "count",
    "core.sampler.sample_arrays.rows_in": "count",
    "core.sampler.sample_arrays.nbrs_out": "count",
    "core.op.dedup.kept_ratio": "ratio",
    "core.kernels.cache.lookups": "count",
    "core.kernels.cache.hit_ratio": "ratio",
    "core.memory.get.rows": "count",
    "core.memory.update.rows": "count",
    "core.mailbox.get.rows": "count",
    "core.mailbox.store.rows": "count",
    "serve.admission.offered": "count",
    "serve.admission.shed": "count",
    "serve.step_ms_p99": "ms",
    "serve.sim_latency_ms_p50": "ms",
    "serve.sim_latency_ms_p99": "ms",
    "serve.deadline.decide.rung_full": "count",
    "serve.deadline.decide.rung_reduced": "count",
    "serve.deadline.decide.rung_cache": "count",
    "serve.deadline.decide.rung_memory": "count",
    "serve.deadline.decide.rung_timeout": "count",
    "serve.ingest.push.pushed": "count",
    "serve.ingest.push.released": "count",
    "serve.ingest.push.duplicates": "count",
    "serve.ingest.push.quarantined": "count",
    "serve.commit.commit.events_applied": "count",
    "serve.commit.commit.rollbacks": "count",
    "durable.wal.append.bytes": "count",
    "cluster.rpc.call.retries": "count",
    "cluster.replica.gather.rows": "count",
    "cluster.replication.ship.parked": "count",
    "integrity.digest.record_rows.chunks": "count",
    "integrity.scrubber.maybe_scrub.cycles": "count",
    "train.infer_ap": "AP",
    "perf.driver.self_s": "s",
    "perf.cpu_us_per_item": "us",
    "trace.overhead_share": "ratio",
    "machine.calib_ms": "ms",
}

#: per-layer metrics that are wall-clock readings; every other one is a pure
#: function of the seed and must repeat exactly between runs.
_WALL_CLOCK = ("serve.step_ms_p99", "perf.cpu_us_per_item", "trace.overhead_share",
               "machine.calib_ms")


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    names: Dict[str, str] = {}
    for layer in tracing.LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
    names.update(EXTRAS)
    return names


def is_deterministic(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly for a given seed."""
    return not (name.endswith(".self_s") or name in _WALL_CLOCK)


# ---- estimators ----------------------------------------------------------------------


def at_reference_speed(rnd: Round) -> tuple:
    """``(windows, steps)`` of *rnd* in seconds at the reference speed."""
    scale = speed.REFERENCE_S / speed.nearby(rnd.speed)
    return np.asarray(rnd.windows) * scale, np.asarray(rnd.steps) * scale[rnd.step_window]


def filtered_seconds(rounds: List[Round], windows: Optional[range] = None) -> float:
    """Window-filtered time ``T̃`` over all windows, or the given ones."""
    med = np.median([at_reference_speed(r)[0] for r in rounds], axis=0)
    return float(med.sum() if windows is None else med[windows.start:windows.stop].sum())


def filtered_steps_ms(rounds: List[Round]) -> np.ndarray:
    return np.median([at_reference_speed(r)[1] for r in rounds], axis=0) * 1e3


class _Scaled:
    """Times a stretch of set-up work, bracketed by speed readings."""

    #: readings on either side; their median rescales the stretch.
    READINGS = 5

    def __init__(self):
        self.seconds: List[float] = []
        self._meter = speed.SpeedMeter()

    def __enter__(self):
        for _ in range(self.READINGS):
            self._meter.sample()
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._start
        for _ in range(self.READINGS):
            self._meter.sample()
        self.seconds.append(wall * speed.factor(self._meter.take()))


# ---- set-up --------------------------------------------------------------------------


def keep_freed_memory_mapped() -> bool:
    """Tell glibc malloc to serve every array from a heap it never shrinks.

    In this VM a page the kernel gave back to the hypervisor costs ~25 us to
    fault in again, and whether a given temporary array pays that is a coin
    toss per round: the same evaluation batch measured 0.35 s or 1.4 s, and
    the first round of the TGN workload 6.5 s against 1.3 s.  With mmap
    disabled and trimming off, freed arrays go back to malloc's own heap and
    later rounds reuse warm pages.  The cost of this choice: a change that
    allocates less shows up in ``peak_rss_mb`` rather than in seconds.
    Returns False where there is no ``mallopt``.
    """
    import ctypes

    m_trim_threshold, m_mmap_max = -1, -4
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, (1 << 31) - 1))


def _import_seconds(root: str) -> List[float]:
    """Seconds a fresh interpreter spends importing the benchmarked code.

    The child only imports; the clock runs here, around the whole child, so
    the readings of the host's speed bracket what they rescale.
    """
    code = f"import sys; sys.path.insert(0, {os.path.join(root, 'src')!r}); import {IMPORTS}"
    timer = _Scaled()
    for _ in range(SETUP_REPEATS):
        with timer:
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           timeout=120)
    return timer.seconds


def _workdir(root: str, name: str) -> str:
    """Scratch for WAL directories: inside the checkout, ignored by git."""
    path = os.path.join(root, "perf", "out", f"work-{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---- one workload --------------------------------------------------------------------


class _Runner:
    """Builds fresh state and runs rounds, keeping set-up times."""

    def __init__(self, workload, seed: int, scale: float, root: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.workdir = _workdir(root, workload.name)
        self._generate, self._construct = _Scaled(), _Scaled()
        self.generate_s, self.construct_s = self._generate.seconds, self._construct.seconds
        self._round = 0
        for rep in range(SETUP_REPEATS):
            with self._generate:
                self.inputs = workload.generate(seed, scale, rep)

    def round(self, tracer: Optional[tracing.Tracer] = None) -> Round:
        gc.collect()
        directory = os.path.join(self.workdir, f"round{self._round}")
        self._round += 1
        with self._construct:
            state = self.workload.construct(self.inputs, self.seed, self.scale, directory)
        try:
            if tracer is None:
                rnd = self.workload.run_round(state, self.inputs, self.scale)
            else:
                tracer.reset()
                with tracer.installed():
                    rnd = self.workload.run_round(state, self.inputs, self.scale, tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        self.workload.check_round(rnd, self.inputs)
        return rnd

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _check_identical(name: str, rounds: List[Round]) -> None:
    first = rounds[0]
    for i, rnd in enumerate(rounds[1:], 1):
        if rnd.fingerprint != first.fingerprint:
            raise CheckFailed(
                f"{name}: round {i} output {rnd.fingerprint} differs from round 0 "
                f"{first.fingerprint} (same seed, fresh state)")
        if (rnd.updated, rnd.scored, rnd.attempted, rnd.not_ok) != (
                first.updated, first.scored, first.attempted, first.not_ok):
            raise CheckFailed(f"{name}: round {i} did different work than round 0")


def _end_to_end(workload, rounds: List[Round], runner: _Runner, import_s: List[float]) -> dict:
    first = rounds[0]
    total = filtered_seconds(rounds)
    update = filtered_seconds(rounds, first.update_windows)
    # training scores in its own phase; serving scores and applies in one loop
    score = total - update if first.update_windows is not None else total
    steps = filtered_steps_ms(rounds)
    once = statistics.median(import_s) + statistics.median(runner.generate_s)
    setup = once + statistics.median(runner.construct_s)
    scaled = [at_reference_speed(r) for r in rounds]
    span = first.update_windows or range(len(first.windows))
    per_round = {
        "update_per_s": [first.updated / float(w[span.start:span.stop].sum())
                         for w, _ in scaled],
        "step_ms_p50": [float(np.percentile(st, 50)) * 1e3 for _, st in scaled],
        "step_ms_p90": [float(np.percentile(st, 90)) * 1e3 for _, st in scaled],
        "setup_s": [once + c for c in runner.construct_s],
    }
    values = {
        "setup_s": setup,
        "update_per_s": first.updated / update,
        "score_per_s": first.scored / score,
        "step_ms_p50": float(np.percentile(steps, 50)),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "ok_share": 1.0 - first.not_ok / first.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(runner.construct_s), "step_ms_p50": len(steps),
               "step_ms_p90": len(steps)}
    return {
        name: {"value": values[name], "unit": unit, "better": better,
               "clock": "wall" if name in _UNSCALED else "wall@ref",
               "samples": samples.get(name, len(rounds)), "rounds": per_round.get(name, [])}
        for name, (unit, better) in END_TO_END.items()
    }


def _per_layer(workload, traced: List[Round], summaries: List[dict], untraced: List[Round],
               runner: _Runner) -> dict:
    """Median self time per layer; counts must repeat exactly across rounds."""
    for i, summary in enumerate(summaries[1:], 1):
        if summary["counts"] != summaries[0]["counts"] or any(
                summary["layers"].get(layer, {}).get("calls") != row["calls"]
                for layer, row in summaries[0]["layers"].items()):
            raise CheckFailed(f"{workload.name}: traced round {i} counted differently "
                              f"than traced round 0")
    layers, counts, facts = summaries[0]["layers"], summaries[0]["counts"], traced[0].facts
    values: Dict[str, float] = {}
    for layer in tracing.LAYERS + [tracing.ROOT_LAYER]:
        values[f"{layer}.self_s"] = statistics.median(
            s["layers"].get(layer, {}).get("self_s", 0.0) * s["factor"] for s in summaries)
        values[f"{layer}.calls"] = layers.get(layer, {}).get("calls", 0)
    for name in EXTRAS:
        values.setdefault(name, counts.get(name, facts.get(name, 0)))
    rows_in = counts.get("core.op.dedup.rows_in", 0)
    lookups = counts.get("core.kernels.cache.lookups", 0)
    values["core.op.dedup.kept_ratio"] = (
        counts.get("core.op.dedup.rows_out", 0) / rows_in if rows_in else 0.0)
    values["core.kernels.cache.hit_ratio"] = (
        counts.get("core.kernels.cache.hits", 0) / lookups if lookups else 0.0)
    values["serve.step_ms_p99"] = (
        float(np.percentile(filtered_steps_ms(traced), 99)) if workload.kind == "serve" else 0.0)
    # process CPU time per trained-or-scored edge / per applied event: leaves
    # out fsync waits, which wall-clock throughput includes
    first = untraced[0]
    items = first.updated + (first.scored if workload.kind == "train" else 0)
    values["perf.cpu_us_per_item"] = statistics.median(
        r.cpu_s * speed.factor(r.speed) for r in untraced) / items * 1e6
    plain = filtered_seconds(untraced)
    values["trace.overhead_share"] = (filtered_seconds(traced) - plain) / plain
    # the one figure that is *not* rescaled: how fast the host was during this run
    values["machine.calib_ms"] = statistics.median(
        reading for r in untraced for reading in r.speed) * 1e3
    names = per_layer_names()
    return {
        name: {"value": float(values[name]), "unit": unit, "clock": _clock(name),
               "samples": len(traced)}
        for name, unit in names.items()
    }


def _clock(name: str) -> str:
    """``sim``: the runtime's own clock; ``wall@ref``: seconds at the reference speed."""
    if name.startswith("serve.sim_"):
        return "sim"
    scaled = name.endswith(".self_s") or name in ("serve.step_ms_p99", "perf.cpu_us_per_item")
    return "wall@ref" if scaled else "wall"


def run_workload(workload, seed: int, seconds: float, trace: bool, root: str,
                 scale: float = 1.0, rounds: Optional[int] = None) -> dict:
    """Warm up, measure for *seconds*, check; returns the full result record.

    ``rounds`` fixes the number of timed rounds instead of the time budget
    (the smoke test's ``R = 2``); ``scale`` shrinks the inputs.
    """
    began = time.perf_counter()
    speed.warm_up()
    import_s = _import_seconds(root)
    runner = _Runner(workload, seed, scale, root)
    tracer = tracing.Tracer() if trace else None
    untraced: List[Round] = []
    traced: List[Round] = []
    summaries: List[dict] = []
    trace_gap = 0.0
    try:
        start = time.perf_counter()
        runner.round()  # warm-up: untimed, inside the --seconds budget
        lap = time.perf_counter() - start
        # a traced invocation alternates untraced / traced rounds so that
        # trace.overhead_share compares like with like
        per_pass = 2 if trace else 1
        while True:
            done = len(untraced)
            if rounds is not None:
                if done >= rounds:
                    break
            elif done >= MIN_ROUNDS and (
                    time.perf_counter() - began + per_pass * lap > seconds):
                break
            start = time.perf_counter()
            untraced.append(runner.round())
            if trace:
                rnd = runner.round(tracer)
                layers = tracing.self_times(tracer.spans)
                layers.pop(speed.CALIB_LAYER)  # the speed readings sit between windows
                trace_gap = max(trace_gap,
                                tracing.check_sum_invariant(layers, sum(rnd.windows)))
                traced.append(rnd)
                summaries.append({"layers": layers, "counts": dict(tracer.counts),
                                  "factor": speed.factor(rnd.speed)})
            lap = (time.perf_counter() - start) / per_pass
        _check_identical(workload.name, untraced + traced)
        workload.check_final(untraced, runner.inputs, seed)
    finally:
        runner.close()

    first = untraced[0]
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "scale": scale,
        "sizes": workload.sizes(scale), "rounds": len(untraced),
        "windows_per_round": len(first.windows), "steps_per_round": len(first.steps),
        "correct": True,
        "attempted": first.attempted * len(untraced),
        "failed": sum(r.failed for r in untraced),
        "end_to_end": _end_to_end(workload, untraced, runner, import_s),
        # 1.0 = the reference speed; wall-clock figures of this run = reported x this
        "host_slowdown": statistics.median(
            reading for r in untraced for reading in r.speed) / speed.REFERENCE_S,
        "wall_s": time.perf_counter() - began,
    }
    if trace:
        record["per_layer"] = _per_layer(workload, traced, summaries, untraced, runner)
        record["trace_sum_gap"] = trace_gap
        out = os.path.join(root, "perf", "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace-{workload.name}.json"), "w") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "round": "last traced round", "spans": tracer.as_dicts()}, fh)
    return record
