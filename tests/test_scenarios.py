"""Streaming scenario suite + continual-learning closed loop tests.

Three layers:

* generator contracts — every registered scenario is deterministic per
  seed (byte-identical digests) and exhibits the statistical shape it
  advertises (burst density, spam concentration, cold-start activation,
  drift direction, churn overlap);
* scoring — windowed AP, per-phase AP, and the gap-recovery metric;
* the closed loop (tentpole acceptance) — a WAL-tailing
  :class:`~repro.scenarios.ContinualLearner` on an abrupt-drift stream
  recovers at least half the frozen→oracle AP gap, deterministically,
  while leaving serve state bit-identical to a swap-free replay.
"""

import numpy as np
import pytest

from repro.bench.metrics import average_precision
from repro.scenarios import (
    ScenarioSpec,
    accuracy_under_drift,
    available_scenarios,
    build_world,
    gap_recovered,
    get_scenario,
    make_stream,
    phase_ap,
    register,
    run_closed_loop,
    windowed_ap,
)

ALL_SCENARIOS = [
    "cold_start",
    "distribution_drift",
    "flash_crowd",
    "node_churn",
    "spam_flood",
]


# ---- registry ---------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered_with_descriptions(self):
        catalog = available_scenarios()
        assert sorted(catalog) == ALL_SCENARIOS
        assert all(desc for desc in catalog.values())

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("meteor_strike")
        with pytest.raises(KeyError, match="available"):
            make_stream("meteor_strike")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("flash_crowd", "imposter")(lambda spec: None)

    def test_make_stream_retargets_explicit_spec(self):
        spec = ScenarioSpec(name="flash_crowd", num_events=300, seed=5)
        stream = make_stream("spam_flood", spec=spec)
        assert stream.spec.name == "spam_flood"
        assert len(stream) == 300


# ---- determinism + stream invariants ----------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_same_seed_byte_identical(self, name):
        a = make_stream(name, num_events=600, seed=23, payload_dim=4)
        b = make_stream(name, num_events=600, seed=23, payload_dim=4)
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_different_seed_different_stream(self, name):
        a = make_stream(name, num_events=600, seed=23)
        b = make_stream(name, num_events=600, seed=24)
        assert a.digest() != b.digest()


class TestStreamInvariants:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_shape_and_ordering(self, name):
        stream = make_stream(name, num_events=800, seed=7)
        ev = stream.events
        assert len(stream) == 800
        np.testing.assert_array_equal(ev.eids, np.arange(800))
        assert (np.diff(ev.ts) >= 0).all()
        assert set(np.unique(stream.labels)) <= {0, 1}
        assert (np.diff(stream.phase) >= 0).all()
        # bipartite world: sources are users, destinations are items
        num_users = stream.meta["num_users"]
        items_lo = stream.meta["items_lo"]
        assert (ev.src < num_users).all() and (ev.src >= 0).all()
        assert (ev.dst >= items_lo).all()
        assert (ev.dst < stream.spec.num_nodes).all()

# ---- per-generator statistical shape ----------------------------------------------


class TestFlashCrowd:
    def test_burst_density_and_hot_concentration(self):
        stream = make_stream("flash_crowd", num_events=2400, seed=13)
        ev = stream.events
        start, end = stream.meta["burst"]
        hot = stream.meta["hot"]

        burst_span = ev.ts[end - 1] - ev.ts[start]
        outside_span = stream.spec.t_max - burst_span
        burst_density = (end - start) / burst_span
        outside_density = (len(stream) - (end - start)) / outside_span
        # amplitude is 6x; allow sampling slack but demand a real spike
        assert burst_density / outside_density > 3.0

        in_hot = np.isin(ev.dst, hot)
        burst_hot = in_hot[start:end].mean()
        outside_hot = np.concatenate([in_hot[:start], in_hot[end:]]).mean()
        assert burst_hot > 0.7  # hot_share=0.8 of burst traffic
        assert outside_hot < 0.3
        # a flash crowd is genuine demand: nearly all hot-item burst
        # events are label 1 (the rare exception: a noise event whose
        # uniform destination lands on a hot item by chance)
        hot_labels = stream.labels[np.flatnonzero(in_hot[start:end]) + start]
        assert hot_labels.mean() > 0.95


class TestSpamFlood:
    def test_spam_concentrated_in_flood_window(self):
        stream = make_stream("spam_flood", num_events=2400, seed=13)
        start, end = stream.meta["flood"]
        spam = stream.labels == 0
        assert spam[start:end].mean() > 0.5  # spam_frac=0.6 inside
        outside = np.concatenate([spam[:start], spam[end:]])
        assert outside.mean() < 0.2  # only background noise outside

    def test_spam_comes_from_spammer_accounts(self):
        stream = make_stream("spam_flood", num_events=2400, seed=13)
        start, end = stream.meta["flood"]
        spammers = stream.meta["spammers"]
        in_flood_spam = (stream.labels[start:end] == 0)
        from_spammer = np.isin(stream.events.src[start:end], spammers)
        # most label-0 flood events are the spammers (rest is noise)
        assert (in_flood_spam & from_spammer).sum() / in_flood_spam.sum() > 0.7


class TestColdStart:
    def test_no_wave_speaks_before_activation(self):
        stream = make_stream("cold_start", num_events=2000, seed=13)
        wave_of = stream.meta["wave_of"]
        activation = stream.meta["activation"]
        num_waves = stream.meta["num_waves"]
        wave_of_src = wave_of[stream.events.src]
        for w in range(1, num_waves):
            assert (wave_of_src[: activation[w]] < w).all(), f"wave {w} early"
        # by the end every wave has spoken
        assert set(np.unique(wave_of_src)) == set(range(num_waves))
        assert stream.phase.max() == num_waves - 1


class TestDistributionDrift:
    def test_abrupt_flip_is_instant(self):
        stream = make_stream(
            "distribution_drift", num_events=1200, seed=13,
            knobs={"mode": "abrupt", "drift_start": 0.5},
        )
        start, end = stream.meta["drift"]
        assert start == end  # no transition window
        shift = stream.meta["shift"]
        assert not shift[:start].any()
        assert shift[start:].all()

    def test_gradual_ramp_is_monotone_in_expectation(self):
        stream = make_stream(
            "distribution_drift", num_events=2400, seed=13,
            knobs={"mode": "gradual", "drift_start": 0.4, "drift_end": 0.8},
        )
        start, end = stream.meta["drift"]
        shift = stream.meta["shift"]
        assert shift[:start].mean() == 0.0
        assert shift[end:].mean() == 1.0
        mid = shift[start:end]
        assert 0.2 < mid.mean() < 0.8
        # first transition half less shifted than second
        assert mid[: len(mid) // 2].mean() < mid[len(mid) // 2 :].mean()

    def test_genuine_events_track_the_shifted_preference(self):
        stream = make_stream(
            "distribution_drift", num_events=1200, seed=13,
            knobs={"mode": "abrupt", "drift_start": 0.5},
        )
        world = build_world(stream.spec)
        shift = stream.meta["shift"]
        genuine = stream.labels == 1
        src = stream.events.src[genuine]
        dst = stream.events.dst[genuine]
        block = np.searchsorted(world.block_start, dst, side="right") - 1
        expected = world.preferred_block(src, shift[genuine])
        np.testing.assert_array_equal(block, expected)


class TestNodeChurn:
    def test_consecutive_active_sets_overlap_by_churn_rate(self):
        stream = make_stream("node_churn", num_events=2400, seed=13)
        sets = stream.meta["active_sets"]
        r = stream.meta["churn_rate"]
        expected = (1 - r) / (1 + r)  # Jaccard after rotating r of each set
        for a, b in zip(sets, sets[1:]):
            inter = len(np.intersect1d(a, b))
            union = len(np.union1d(a, b))
            j = inter / union
            assert abs(j - expected) < 0.15, f"jaccard {j} vs {expected}"
            assert j < 1.0  # churn actually happened

    def test_genuine_traffic_targets_active_items_only(self):
        stream = make_stream("node_churn", num_events=2400, seed=13)
        sets = stream.meta["active_sets"]
        genuine = stream.labels == 1
        for pid in np.unique(stream.phase):
            sel = genuine & (stream.phase == pid)
            assert np.isin(stream.events.dst[sel], sets[pid]).all(), f"phase {pid}"


# ---- scoring ----------------------------------------------------------------------


class TestScoring:
    def _stream(self, labels, phase=None):
        n = len(labels)
        ev_stream = make_stream("spam_flood", num_events=n, seed=3)
        out = ev_stream
        out.labels = np.asarray(labels, dtype=np.int64)
        if phase is not None:
            out.phase = np.asarray(phase, dtype=np.int64)
        return out

    def test_perfect_scores_ap_one_per_window(self):
        labels = np.tile([1, 0], 200)
        windows = windowed_ap(labels, labels.astype(float), num_windows=5)
        assert len(windows) == 5
        assert all(w["ap"] == 1.0 for w in windows)
        assert all(w["positives"] == 40 for w in windows)

    def test_single_class_window_is_nan(self):
        windows = windowed_ap(np.ones(40, dtype=int), np.zeros(40), num_windows=2)
        assert all(np.isnan(w["ap"]) for w in windows)

    def test_non_finite_scores_dropped_before_windowing(self):
        labels = np.tile([1, 0], 100)
        scores = labels.astype(float).copy()
        scores[:100] = np.nan  # unserved warmup prefix
        windows = windowed_ap(labels, scores, num_windows=4)
        assert sum(w["stop"] - w["start"] for w in windows) == 100

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must align"):
            windowed_ap(np.ones(5, dtype=int), np.zeros(4))

    def test_phase_ap_reports_nan_for_unserved_phase(self):
        stream = self._stream(
            np.tile([1, 0], 50), phase=np.repeat([0, 1], 50)
        )
        scores = np.full(100, np.nan)
        scores[50:] = stream.labels[50:].astype(float)
        by_phase = phase_ap(stream, scores)
        assert np.isnan(by_phase[0])
        assert by_phase[1] == 1.0

    def test_accuracy_under_drift_summary_keys(self):
        stream = self._stream(np.tile([1, 0], 100))
        summary = accuracy_under_drift(
            stream, stream.labels.astype(float), num_windows=4
        )
        assert summary["scenario"] == "spam_flood"
        assert summary["overall_ap"] == 1.0
        assert len(summary["windows"]) == 4
        assert np.isfinite(summary["min_window_ap"])

    def test_gap_recovered_arithmetic(self):
        assert gap_recovered(0.5, 0.75, 1.0) == pytest.approx(0.5)
        assert gap_recovered(0.5, 1.0, 0.75) == pytest.approx(2.0)
        assert gap_recovered(0.5, 0.25, 1.0) == pytest.approx(-0.5)
        # degenerate oracle: nothing to recover
        assert gap_recovered(0.5, 0.5, 0.5) == 1.0
        assert gap_recovered(0.5, 0.4, 0.5) == 0.0


# ---- the closed loop (tentpole acceptance) ----------------------------------------


DRIFT_KW = dict(
    num_events=2400,
    seed=11,
    noise_frac=0.45,
    knobs={"mode": "abrupt", "drift_start": 0.5},
)


def _post_drift_ap(stream, scores):
    """AP restricted to the served post-drift phase."""
    mask = (stream.phase == 2) & np.isfinite(scores)
    return average_precision(stream.labels[mask], scores[mask])


@pytest.fixture(scope="module")
def drift_stream():
    return make_stream("distribution_drift", **DRIFT_KW)


@pytest.fixture(scope="module")
def closed_loop(drift_stream, tmp_path_factory):
    """One frozen / continual / oracle run each over the same stream."""
    runs = {}
    for mode in ("frozen", "continual", "oracle"):
        workdir = str(tmp_path_factory.mktemp(f"loop-{mode}"))
        runs[mode] = run_closed_loop(
            drift_stream, mode=mode, seed=3, workdir=workdir
        )
    return runs


class TestClosedLoop:
    def test_invalid_mode_rejected(self, drift_stream):
        with pytest.raises(ValueError, match="frozen|continual|oracle"):
            run_closed_loop(drift_stream, mode="psychic")

    def test_drift_hurts_the_frozen_model(self, drift_stream, closed_loop):
        post = _post_drift_ap(drift_stream, closed_loop["frozen"]["scores"])
        assert np.isfinite(post)
        oracle_post = _post_drift_ap(drift_stream, closed_loop["oracle"]["scores"])
        assert oracle_post > post + 0.05, (
            f"oracle {oracle_post:.3f} should beat frozen {post:.3f} post-drift"
        )

    def test_continual_recovers_at_least_half_the_gap(
        self, drift_stream, closed_loop
    ):
        frozen = _post_drift_ap(drift_stream, closed_loop["frozen"]["scores"])
        cont = _post_drift_ap(drift_stream, closed_loop["continual"]["scores"])
        oracle = _post_drift_ap(drift_stream, closed_loop["oracle"]["scores"])
        recovered = gap_recovered(frozen, cont, oracle)
        assert recovered >= 0.5, (
            f"gap recovered {recovered:.2f} "
            f"(frozen={frozen:.3f} continual={cont:.3f} oracle={oracle:.3f})"
        )

    def test_learner_actually_tailed_and_swapped(self, closed_loop):
        learner = closed_loop["continual"]["learner"]
        assert learner["swaps"] >= 1
        assert learner["events_trained"] == learner["events_seen"] > 0
        assert learner["cursor"]["delivered"] > 0
        assert closed_loop["continual"]["stats"]["model:version"] >= 2
        # frozen/oracle runs have no learner
        assert closed_loop["frozen"]["learner"] is None

    def test_hot_swaps_leave_serve_state_bit_identical(self, closed_loop):
        digests = {m: r["state_digest"] for m, r in closed_loop.items()}
        assert digests["frozen"] == digests["continual"] == digests["oracle"], (
            "model hot-swaps must not perturb the commit path"
        )

    def test_closed_loop_deterministic(
        self, drift_stream, closed_loop, tmp_path_factory
    ):
        workdir = str(tmp_path_factory.mktemp("loop-again"))
        again = run_closed_loop(
            drift_stream, mode="continual", seed=3, workdir=workdir
        )
        np.testing.assert_array_equal(
            again["scores"], closed_loop["continual"]["scores"]
        )
        assert again["state_digest"] == closed_loop["continual"]["state_digest"]
        assert again["learner"]["swaps"] == closed_loop["continual"]["learner"]["swaps"]

    def test_infinite_staleness_budget_is_frozen(
        self, drift_stream, closed_loop, tmp_path_factory
    ):
        workdir = str(tmp_path_factory.mktemp("loop-inf"))
        run = run_closed_loop(
            drift_stream, mode="continual", seed=3, workdir=workdir,
            staleness_budget=float("inf"),
        )
        assert run["learner"]["swaps"] == 0
        np.testing.assert_array_equal(
            run["scores"], closed_loop["frozen"]["scores"]
        )
