"""Smoke tests of the benchmark itself (``python -m pytest perf -q``; not tier-1).

Every workload runs at 1/20 size with R = 2 rounds: the metric names match
``BENCHMARK.json`` exactly, deterministic values repeat for a seed and move
with it, the output checks trip on corrupted state, and the tracer names a
wrapped callable that has gone missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import measure, run, speed, trace, workloads  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

SCALE, ROUNDS = 0.05, 2
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name: str, seed: int, traced: bool = True) -> dict:
    return measure.run_workload(WORKLOADS[name], seed, 0.0, traced, str(ROOT),
                                scale=SCALE, rounds=ROUNDS)


def _deterministic(record: dict) -> dict:
    values = {k: v["value"] for k, v in record["per_layer"].items()
              if measure.is_deterministic(k)}
    values["ok_share"] = record["end_to_end"]["ok_share"]["value"]
    return values


# ---- the contract file and the code agree --------------------------------------------


def test_contract_matches_code():
    assert CONTRACT["command"] == ["python3", "perf/run.py"]
    assert CONTRACT["paths"] == ["perf"]
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["end_to_end"]} == (
        measure.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == measure.per_layer_names()
    assert len(CONTRACT["per_layer"]) <= 128
    assert set(measure.EXTRAS).isdisjoint(
        f"{layer}{suffix}" for layer in trace.LAYERS for suffix in (".self_s", ".calls"))


# ---- every workload: names, determinism, seed sensitivity ----------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric_deterministically(name):
    first, again, other = _run(name, 0), _run(name, 0), _run(name, 1)
    for record in (first, again, other):
        assert record["correct"] and record["failed"] == 0 and record["rounds"] == ROUNDS
        assert list(record["end_to_end"]) == [m["name"] for m in CONTRACT["end_to_end"]]
        assert list(record["per_layer"]) == [m["name"] for m in CONTRACT["per_layer"]]
        assert all(row["value"] > 0 for row in record["end_to_end"].values())
        assert record["trace_sum_gap"] <= trace.SUM_TOLERANCE
    assert _deterministic(first) == _deterministic(again)
    assert _deterministic(first) != _deterministic(other)


def test_zero_call_predictions_hold():
    """Each optimisation has a workload that bypasses it (prediction: no change there)."""
    tgn = _run("train_tgn_plain", 0)["per_layer"]
    assert tgn["core.op.dedup.calls"]["value"] == 0
    assert tgn["store.ops.memoize.calls"]["value"] == 0
    assert tgn["core.memory.update.calls"]["value"] > 0
    tgat = _run("train_tgat_opt", 0)["per_layer"]
    assert tgat["core.memory.update.calls"]["value"] == 0
    assert tgat["core.op.dedup.calls"]["value"] > 0
    clean = _run("serve_clean", 0)["per_layer"]
    assert clean["serve.admission.shed"]["value"] == 0
    assert clean["serve.deadline.decide.rung_full"]["value"] == (
        clean["serve.admission.offered"]["value"])
    assert clean["cluster.coordinator.step.calls"]["value"] == 0


# ---- output checks trip on corrupted state -------------------------------------------


def test_nan_in_memory_trips_the_serving_checks(monkeypatch):
    workload = WORKLOADS["serve_clean"]
    construct = workload.construct

    def poisoned(inputs, seed, scale, workdir):
        rt = construct(inputs, seed, scale, workdir)
        untouched = np.setdiff1d(np.arange(workloads.NUM_NODES),
                                 np.concatenate([inputs.clean.src, inputs.clean.dst]))
        rt.memory.data.data[untouched[0], 0] = np.nan
        return rt

    monkeypatch.setattr(workload, "construct", poisoned)
    with pytest.raises(measure.CheckFailed):
        _run("serve_clean", 0, traced=False)


def test_flipped_replica_row_trips_the_reference_check(monkeypatch):
    drive = workloads.drive

    def drive_then_flip(rt, *args):
        out = drive(rt, *args)
        if hasattr(rt, "groups"):  # the cluster, not the single-runtime reference
            rt.groups[0].primary.memory.data.data[0, 0] += 1.0
        return out

    monkeypatch.setattr(workloads, "drive", drive_then_flip)
    with pytest.raises(measure.CheckFailed, match="single-ServeRuntime replay"):
        _run("cluster_s4_f3", 0, traced=False)


def test_rounds_that_disagree_trip_the_identity_check(monkeypatch):
    drive, calls = workloads.drive, []

    def drive_then_drift(rt, *args):
        out = drive(rt, *args)
        calls.append(1)
        rt.memory.data.data[0, 0] += float(len(calls))
        return out

    monkeypatch.setattr(workloads, "drive", drive_then_drift)
    with pytest.raises(measure.CheckFailed, match="differs from round 0"):
        _run("serve_overload", 0, traced=False)


# ---- the host's speed is divided out --------------------------------------------------


def _round(windows, steps, step_window, readings):
    return workloads.Round(windows=windows, steps=steps, speed=readings,
                           step_window=step_window, cpu_s=sum(windows), updated=1, scored=1,
                           attempted=1, not_ok=0, failed=0, fingerprint=())


def test_a_round_on_a_host_twice_as_slow_reads_the_same():
    ref = speed.REFERENCE_S
    usual = _round([1.0, 2.0], [0.5, 0.25], [0, 1], [ref, ref, ref])
    # the host slows to half speed during the second window
    slow = _round([1.0, 4.0], [0.5, 0.5], [0, 1], [ref, ref, 3 * ref])
    assert measure.filtered_seconds([usual]) == pytest.approx(3.0)
    assert measure.filtered_seconds([slow]) == pytest.approx(3.0)
    assert measure.filtered_steps_ms([slow]) == pytest.approx([500.0, 250.0])
    assert speed.factor([2 * ref] * 3) == pytest.approx(0.5)


# ---- tracer --------------------------------------------------------------------------


def test_missing_wrap_target_is_named_and_nothing_stays_patched(monkeypatch):
    from repro.core.sampler import TSampler
    from repro.serve.runtime import ServeRuntime

    original_step = ServeRuntime.step
    monkeypatch.delattr(TSampler, "sample_arrays")
    with pytest.raises(trace.TraceTargetMissing, match="TSampler.sample_arrays"):
        trace.Tracer().install()
    assert ServeRuntime.step is original_step


def test_tracer_restores_every_callable():
    from repro.core import op
    from repro.serve.runtime import ServeRuntime

    before = (ServeRuntime.step, op.dedup)
    tracer = trace.Tracer()
    with tracer.installed():
        assert ServeRuntime.step is not before[0] and op.dedup is not before[1]
    assert (ServeRuntime.step, op.dedup) == before


def test_self_time_subtracts_children_and_sums_to_the_root():
    spans = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 2.0, 3.0, 1, 0),
             ("a", 6.0, 8.0, 0, 1)]
    layers = trace.self_times(spans)
    assert layers["root"] == {"self_s": 4.0, "calls": 1}
    assert layers["a"] == {"self_s": 5.0, "calls": 2}
    assert layers["b"] == {"self_s": 1.0, "calls": 1}
    assert trace.check_sum_invariant(layers, 10.0) == 0.0
    with pytest.raises(AssertionError, match="trace invariant"):
        trace.check_sum_invariant(layers, 12.0)


# ---- --compare -----------------------------------------------------------------------


def _result(update_per_s, rounds):
    row = {"value": update_per_s, "unit": "1/s", "better": "higher", "rounds": rounds}
    return {"workloads": {"w": {"end_to_end": {"update_per_s": row}}}}


@pytest.mark.parametrize("worse_by, round_spread, verdict, code", [
    (0.2, 0.02, "ok", 0),          # worse by a fifth of the bound, tight rounds
    (1.5, 0.02, "regressed", 1),   # worse by one and a half bounds
    (0.2, 2.0, "unresolved", 0),   # rounds spread twice as wide as the bound
])
def test_compare_verdicts(tmp_path, capsys, worse_by, round_spread, verdict, code):
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "update_per_s")
    value = 100.0 * (1.0 - worse_by * bound)
    half = value * round_spread * bound
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(100.0, [99.0, 100.0, 101.0])))
    b.write_text(json.dumps(_result(value, [value - half, value, value + half])))
    assert run.compare(str(a), str(b)) == code
    assert f"1 {verdict}" in capsys.readouterr().out
