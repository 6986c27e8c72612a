"""Tests for the online serving runtime (`repro.serve`).

Covers the hardened-ingestion contract (validation, quarantine reasons,
idempotent dedup, watermark reordering), admission control and load
shedding, the deadline degradation ladder, atomic check-then-log-then-write
commits, the poisoned-stream equivalence guarantee, and chaos runs under
`resilience.FaultInjector`.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core as tg
from repro.cluster import ClusterConfig, ServeCluster
from repro.core import Mailbox, Memory, TBatch, TGraph, TSampler
from repro.resilience import FaultInjector, TransientKernelError, validate_state
from repro.serve import (
    AdmissionController,
    CostModel,
    DegradationLadder,
    IngestPipeline,
    RejectReason,
    ServeRuntime,
    SimClock,
    StateCommitter,
    TokenBucket,
    build_stream,
    ledger_violations,
    poison_stream,
    replay,
    split_batches,
    validate_events,
)
from repro.serve.deadline import REFERENCE_PENALTY, LadderDecision
from repro.serve.engine import neighbour_sum
serve_replay = importlib.import_module("repro.serve.replay")  # the module, not the re-exported function

from reference import scatter_add_reference

N = 60
DIM = 8


def _batch(eids, src, dst, ts, payload=None):
    return TBatch(np.asarray(eids), np.asarray(src), np.asarray(dst),
                  np.asarray(ts), payload)


def _push(pipeline, batch):
    """Push *batch* with its validation, as the engine's step does."""
    return pipeline.push(batch, validate_events(batch, pipeline.num_nodes))


def _quarantined(counters):
    """Quarantined events per reject reason, from a counter table."""
    prefix = "ingest:quarantined:"
    return {k[len(prefix):]: v for k, v in counters.items() if k.startswith(prefix)}


def _runtime(stream, num_nodes=N, **kw):
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=num_nodes)
    ctx = tg.TContext(g)
    mem = Memory(num_nodes, DIM)
    mb = Mailbox(num_nodes, DIM)
    sampler = TSampler(10, seed=3)
    kw.setdefault("deadline", 1.0)
    kw.setdefault("max_queue", 1 << 30)
    return ServeRuntime(g, ctx, mem, sampler, mailbox=mb, **kw)


class TestValidation:
    def test_clean_batch_all_ok(self):
        b = _batch([0, 1], [1, 2], [3, 4], [1.0, 2.0])
        ok, reasons = validate_events(b, N)
        assert ok.all() and reasons == {}

    def test_each_reject_reason(self):
        payload = np.zeros((6, 2), dtype=np.float32)
        payload[5, 1] = np.inf
        b = _batch(
            [0, 1, 2, 3, 4, 5],
            [1, 1, -2, N + 5, 1, 1],
            [2, 2, 3, 2, 2, 2],
            [np.nan, -1.0, 1.0, 1.0, 1.0, 1.0],
            payload,
        )
        ok, reasons = validate_events(b, N)
        assert list(np.flatnonzero(~ok)) == [0, 1, 2, 3, 5]
        assert reasons[0] == RejectReason.NON_FINITE_TIME
        assert reasons[1] == RejectReason.NEGATIVE_TIME
        assert reasons[2] == RejectReason.NEGATIVE_NODE
        assert reasons[3] == RejectReason.NODE_OUT_OF_RANGE
        assert reasons[5] == RejectReason.NON_FINITE_PAYLOAD

    def test_first_failed_check_wins(self):
        b = _batch([0], [-1], [2], [np.nan])
        _, reasons = validate_events(b, N)
        assert reasons[0] == RejectReason.NON_FINITE_TIME


class TestIngestPipeline:
    def test_quarantines_with_structured_reasons(self):
        p = IngestPipeline(N)
        out = _push(p, _batch([0, 1, 2], [1, -1, 2], [2, 2, N + 9], [1.0, 1.0, 1.0]))
        assert len(out) == 1
        assert _quarantined(p.counters) == {
            RejectReason.NEGATIVE_NODE: 1,
            RejectReason.NODE_OUT_OF_RANGE: 1,
        }
        reasons = {q.reason for q in p.quarantine}
        assert reasons == {RejectReason.NEGATIVE_NODE,
                           RejectReason.NODE_OUT_OF_RANGE}

    def test_idempotent_replay_dedup(self):
        p = IngestPipeline(N)
        first = _push(p, _batch([7, 8], [1, 2], [3, 4], [1.0, 2.0]))
        again = _push(p, _batch([7, 8], [1, 2], [3, 4], [1.0, 2.0]))
        assert len(first) == 2 and len(again) == 0
        assert p.counters["ingest:duplicates"] == 2
        # duplicates are normal redelivery, not quarantine material
        assert _quarantined(p.counters) == {}

    def test_watermark_holds_back_recent_events(self):
        p = IngestPipeline(N, lateness=5.0)
        out = _push(p, _batch([0, 1, 2], [1, 1, 1], [2, 2, 2], [1.0, 4.0, 10.0]))
        # watermark = 10 - 5 = 5: only ts <= 5 released
        assert list(out.ts) == [1.0, 4.0]
        assert p.buffered == 1
        assert len(p.flush()) == 1

    def test_out_of_order_within_lateness_released_in_order(self):
        p = IngestPipeline(N, lateness=10.0)
        _push(p, _batch([0], [1], [2], [7.0]))
        _push(p, _batch([1], [1], [2], [3.0]))  # late but within bound
        out = p.flush()
        assert list(out.ts) == [3.0, 7.0]
        assert _quarantined(p.counters) == {}

    def test_event_below_watermark_quarantined_late(self):
        p = IngestPipeline(N, lateness=1.0)
        _push(p, _batch([0], [1], [2], [100.0]))  # watermark -> 99
        _push(p, _batch([1], [1], [2], [5.0]))
        assert _quarantined(p.counters) == {RejectReason.LATE_EVENT: 1}

    def test_release_order_is_canonical_ts_eid(self):
        p = IngestPipeline(N, lateness=100.0)
        _push(p, _batch([5, 2], [1, 1], [2, 2], [4.0, 4.0]))
        _push(p, _batch([1], [1], [2], [4.0]))
        out = p.flush()
        assert list(out.eids) == [1, 2, 5]

    def test_buffer_overflow_forces_watermark_advance(self, monkeypatch):
        monkeypatch.setattr(IngestPipeline, "MAX_BUFFER", 3)
        p = IngestPipeline(N, lateness=1e9)
        out = _push(p, _batch(np.arange(5), np.ones(5, int), np.full(5, 2),
                              np.arange(5, dtype=float)))
        # lateness would buffer everything; the bound forces 2 releases
        assert len(out) == 2
        assert p.counters["ingest:forced_releases"] == 2
        assert p.buffered == 3

    def test_ledger_always_balances(self):
        p = IngestPipeline(N, lateness=2.0)
        _push(p, _batch([0, 1, 0], [1, -1, 1], [2, 2, 2], [1.0, 1.0, 1.0]))
        _push(p, _batch([3], [1], [2], [np.nan]))
        c = p.counters
        assert c["ingest:pushed"] == (c["ingest:accepted"] + c["ingest:duplicates"]
                                      + sum(_quarantined(c).values()))

    def test_ingest_fault_retry_is_idempotent(self):
        p = IngestPipeline(N)
        inj = FaultInjector(seed=1, schedules={"serve.ingest": [(0, 0)]})
        b = _batch([0, 1], [1, 2], [3, 4], [1.0, 2.0])
        with inj:
            inj.advance(0, 0)
            with pytest.raises(TransientKernelError):
                _push(p, b)
            out = _push(p, b)  # transient: second attempt succeeds
        assert len(out) == 2
        assert p.counters["ingest:pushed"] == 2 and p.counters["ingest:duplicates"] == 0


def _loop_fresh(seen, eids, keep):
    """The per-event replay dedup ``IngestPipeline.push`` used to run:
    kept positions whose id is new, first occurrence within the batch."""
    fresh = []
    for i in keep:
        eid = int(eids[i])
        if eid not in seen:
            seen.add(eid)
            fresh.append(int(i))
    return fresh


class TestReplayDedup:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=12),
                    min_size=1, max_size=8))
    def test_matches_the_per_event_loop(self, pushes):
        """Ids repeat within and across pushes, and invalid events (which
        mark no id seen) sit among them.  Timestamps rise with position, so
        with ``lateness=0`` every accepted event is released by its own push
        and the released timestamps name the accepted positions."""
        p = IngestPipeline(N, lateness=0.0)
        seen, t = set(), 0.0
        for events in pushes:
            eids = np.array([e for e, _ in events], dtype=np.int64)
            src = np.array([1 if valid else -1 for _, valid in events], dtype=np.int64)
            ts = t + np.arange(len(events), dtype=np.float64)
            t += len(events)
            batch = _batch(eids, src, np.full(len(events), 2, dtype=np.int64), ts)
            checked = validate_events(batch, N)
            keep = np.flatnonzero(checked[0])
            want = _loop_fresh(seen, eids, keep)
            before = p.counters["ingest:duplicates"]
            out = p.push(batch, checked)
            assert out.ts.tolist() == ts[want].tolist()
            assert out.eids.tolist() == eids[want].tolist()
            assert p.counters["ingest:duplicates"] - before == len(keep) - len(want)


class TestAdmission:
    def test_token_bucket_rate_limits_on_sim_clock(self):
        clock = SimClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # refills one token
        assert bucket.try_acquire()

    def test_reject_new_sheds_arrivals_when_full(self):
        ac = AdmissionController(SimClock(), max_queue=2)
        assert ac.offer("a") and ac.offer("b")
        assert not ac.offer("c")
        assert ac.counters["admission:shed_queue_full"] == 1
        assert ac.drain_shed() == ["c"]
        assert ac.poll() == "a"

    def test_drop_oldest_evicts_queue_head(self):
        ac = AdmissionController(SimClock(), max_queue=2, policy="drop-oldest")
        ac.offer("a"), ac.offer("b")
        assert ac.offer("c")  # admitted; evicts "a"
        assert ac.drain_shed() == ["a"]
        assert ac.poll() == "b" and ac.poll() == "c"

    def test_offered_equals_admitted_plus_shed(self):
        clock = SimClock()
        ac = AdmissionController(clock, max_queue=3, rate=1.0)
        for _ in range(8):
            ac.offer(object())
            clock.advance(0.1)
        c = ac.counters
        assert c["admission:offered"] == 8 == (
            c["admission:admitted"] + c["admission:shed_rate_limited"]
            + c["admission:shed_queue_full"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="shed policy"):
            AdmissionController(SimClock(), policy="coin-flip")


class TestDegradationLadder:
    def test_generous_budget_serves_full(self):
        ladder = DegradationLadder(full_fanout=10)
        d = ladder.decide(1.0, 100)
        assert d.level == "full" and d.fanout == 10

    def test_ladder_descends_with_budget(self):
        ladder = DegradationLadder(full_fanout=10)
        cm = ladder.cost_model
        levels = [
            ladder.decide(cm.estimate(lv, 100) * 1.001, 100).level
            for lv in ("full", "reduced", "cache", "memory")
        ]
        assert levels == ["full", "reduced", "cache", "memory"]

    def test_timeout_when_nothing_affordable(self):
        ladder = DegradationLadder()
        d = ladder.decide(0.0, 100)
        assert d.level == "timeout" and ladder.counters == {"ladder:timeout": 1}

    def test_cache_rung_skipped_when_cache_degraded(self):
        g = TGraph([0], [1], [1.0])
        ctx = tg.TContext(g)
        ctx.degrade_threshold = 1
        ctx.record_kernel_fault("kernel.cache")
        assert ctx.is_degraded("kernel.cache")
        ladder = DegradationLadder()
        budget = ladder.cost_model.estimate("cache", 100) * 1.001
        assert ladder.decide(budget, 100, ctx).level == "memory"

    def test_degraded_sampler_inflates_sampling_cost(self):
        g = TGraph([0], [1], [1.0])
        ctx = tg.TContext(g)
        ctx.degrade_threshold = 1
        ctx.record_kernel_fault("kernel.sample")
        cm = CostModel()
        assert cm.estimate("full", 50, ctx) == pytest.approx(
            cm.estimate("full", 50) * REFERENCE_PENALTY)
        assert cm.estimate("memory", 50, ctx) == cm.estimate("memory", 50)


class TestStateCommitter:
    @pytest.fixture(autouse=True)
    def _no_whole_table_work(self, monkeypatch):
        """A commit is O(batch): it neither copies nor scans a whole table."""
        def whole_table(self, *args, **kwargs):
            raise AssertionError("whole-table copy/scan on the commit path")

        for cls in (Memory, Mailbox):
            monkeypatch.setattr(cls, "validate", whole_table)

    def test_commit_applies_and_advances_watermark(self):
        mem, mb = Memory(N, DIM), Mailbox(N, DIM)
        c = StateCommitter(mem, mailbox=mb)
        r = c.commit(_batch([0, 1], [1, 2], [3, 4], [1.0, 2.0]))
        assert r.applied and c.committed_watermark == 2.0
        assert mem.time[1] == 1.0 and mem.time[4] == 2.0
        assert (mem.data.data[3] != 0).any()

    def test_poisoned_batch_rolls_back_bit_identical(self):
        mem, mb = Memory(N, DIM), Mailbox(N, DIM)
        c = StateCommitter(mem, mailbox=mb)
        c.commit(_batch([0], [1], [2], [1.0]))
        before = (mem.state_digest(), mb.state_digest())
        quarantined = []
        c.quarantine = lambda b, d: quarantined.append((len(b), d))
        inj = FaultInjector(seed=2, schedules={"serve.poison": [(0, 0)]})
        with inj:
            inj.advance(0, 0)
            r = c.commit(_batch([5, 6], [7, 8], [9, 10], [2.0, 3.0]))
        assert not r.applied and r.violations
        assert quarantined and quarantined[0][0] == 2
        assert (mem.state_digest(), mb.state_digest()) == before
        assert c.committed_watermark == 1.0  # never advanced past the rollback

    def test_transient_commit_fault_retries(self):
        mem = Memory(N, DIM)
        c = StateCommitter(mem)
        inj = FaultInjector(seed=3, schedules={"serve.commit": [(0, 0)]})
        with inj:
            inj.advance(0, 0)
            r = c.commit(_batch([0], [1], [2], [1.0]))
        assert r.applied and r.retries == 1
        assert mem.time[1] == 1.0

    def test_commit_is_order_invariant(self):
        b = _batch([0, 1, 2], [1, 1, 5], [2, 3, 1], [1.0, 3.0, 2.0],
                   np.arange(24, dtype=np.float32).reshape(3, 8))
        states = []
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            mem = Memory(N, DIM)
            StateCommitter(mem).commit(b.take(np.array(perm)))
            states.append(mem.state_digest())
        assert all(d == states[0] for d in states[1:])


class TestServeRuntime:
    def test_clean_stream_full_quality(self):
        stream = build_stream(N, 200, payload_dim=DIM, seed=1)
        rt = _runtime(stream)
        results = replay(rt, split_batches(stream, 25), load=1.0)
        assert all(r.status == "ok" and r.level == "full" for r in results)
        stats = rt.stats()
        assert stats["commit:events_applied"] == 200
        assert stats["admission:admitted"] == 8
        lat = rt.ctx.stats().latency
        assert lat is not None and lat.count == 8 and lat.p99 >= lat.p50 > 0

    def test_scores_are_probabilities_and_junk_is_nan(self):
        stream = build_stream(N, 50, payload_dim=DIM, seed=2)
        rt = _runtime(stream)
        bad = _batch([900], [N + 4], [1], [1.0],
                     np.zeros((1, DIM), dtype=np.float32))
        mixed = TBatch.concat([stream.take(np.arange(10)), bad])
        rt.submit(mixed)
        r = rt.step()
        assert r.status == "ok"
        assert np.isnan(r.scores[-1])
        good = r.scores[:-1]
        assert np.isfinite(good).all() and (good > 0).all() and (good < 1).all()

    def test_shed_under_load_with_bounded_queue(self):
        stream = build_stream(N, 400, payload_dim=DIM, seed=3)
        rt = _runtime(stream, deadline=3e-3, max_queue=4)
        results = replay(rt, split_batches(stream, 20), load=16.0)
        statuses = {r.status for r in results}
        assert "shed" in statuses
        stats = rt.stats()
        assert ledger_violations(stats) == []
        shed = sum(r.status == "shed" for r in results)
        assert stats["admission:shed_queue_full"] == shed > 0
        # every offered request got an answer
        assert len(results) == stats["admission:offered"] == 20

    def test_deadline_pressure_walks_down_ladder(self):
        stream = build_stream(N, 400, payload_dim=DIM, seed=4)
        rt = _runtime(stream, deadline=3e-3, max_queue=64)
        replay(rt, split_batches(stream, 20), load=16.0)
        rungs = {k for k in rt.ctx.counters if k.startswith("ladder:")}
        assert rungs - {"ladder:full"}, f"no degradation under 16x load: {rungs}"
        degraded = [k for k in rt.ctx.counters if k.startswith("serve:degraded:")]
        assert degraded

    def test_degraded_responses_never_degrade_state(self):
        # Same stream served under brutal deadlines vs none: final state
        # must match exactly (the ladder degrades responses, not commits),
        # as long as nothing is shed.
        stream = build_stream(N, 300, payload_dim=DIM, seed=5)
        batches = split_batches(stream, 30)
        rt_fast = _runtime(stream, deadline=2e-4)
        replay(rt_fast, batches, load=16.0)
        assert rt_fast.ctx.counters.get("ladder:full", 0) < len(batches)
        rt_slow = _runtime(stream)
        replay(rt_slow, batches, load=1.0)
        assert rt_fast.memory.state_digest() == rt_slow.memory.state_digest()
        assert rt_fast.mailbox.state_digest() == rt_slow.mailbox.state_digest()

    def test_sixteen_x_load_stays_available_with_consistent_stats(self):
        stream = build_stream(N, 600, payload_dim=DIM, seed=6)
        rt = _runtime(stream, deadline=3e-3, max_queue=8)
        results = replay(rt, split_batches(stream, 20), load=16.0)
        assert len(results) == 30  # every request answered: available
        counters = rt.stats()
        assert ledger_violations(counters) == []
        assert counters["commit:events_applied"] == counters["ingest:released"]
        stats = rt.ctx.stats()
        assert stats.latency.count == sum(
            1 for r in results if r.status != "shed")
        assert not rt.memory.validate() and not rt.mailbox.validate()


class TestMixedPayloads:
    """Requests whose payload shapes differ are buffered together when the
    lateness bound holds them back; the stream's first accepted event fixes
    the shape and a request of another shape is quarantined whole."""

    A = ([0], [3], [4], [1.0], None)
    B = ([1], [3], [5], [2.0], np.full((1, DIM), 0.5, dtype=np.float32))

    def _serve(self, backend, first, second, lateness):
        stream = _batch([0, 1], [3, 3], [4, 5], [1.0, 2.0])
        g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
        kw = dict(deadline=1.0, max_queue=1 << 30, lateness=lateness)
        if backend == "runtime":
            engine = _runtime(stream, **kw)
        else:
            engine = ServeCluster(g, tg.TContext(g), TSampler(10, seed=3), DIM,
                                  config=ClusterConfig(num_shards=1), **kw)
        with engine:
            for request in (first, second):
                engine.submit(_batch(*request))
            engine.drain()
            stats = engine.stats()
            data, _ = engine.memory.tables() if backend == "runtime" else engine.memory_image()
            return stats, data.copy()

    @pytest.mark.parametrize("backend", ["runtime", "cluster"])
    @pytest.mark.parametrize("order", ["none_first", "payload_first"])
    def test_one_payload_shape_per_stream(self, backend, order):
        first, second = (self.A, self.B) if order == "none_first" else (self.B, self.A)
        rows = []
        for lateness in (0.0, 10.0):
            stats, data = self._serve(backend, first, second, lateness)
            assert ledger_violations(stats) == []
            assert _quarantined(stats) == {RejectReason.PAYLOAD_SHAPE: 1}
            assert stats["ingest:accepted"] == stats["ingest:released"] == 1
            rows.append(data)
        np.testing.assert_array_equal(rows[0], rows[1])
        assert (rows[0][3] == 0.5).all() == (order == "payload_first")

    def test_the_quarantined_event_is_the_later_shape(self):
        p = IngestPipeline(N, lateness=10.0)
        _push(p, _batch(*self.B))
        _push(p, _batch(*self.A))
        assert [(q.eid, q.reason) for q in p.quarantine] == [(0, RejectReason.PAYLOAD_SHAPE)]
        released = p.flush()
        assert released.eids.tolist() == [1] and released.payload.shape == (1, DIM)


class TestNeighbourSum:
    """The full rung's neighbour sum is ``np.add.at``'s, bit for bit."""

    @staticmethod
    def assert_matches_add_at(counts, rows):
        counts = np.asarray(counts, dtype=np.int64)
        dstindex = np.repeat(np.arange(len(counts)), counts)
        got = neighbour_sum(dstindex, rows, counts)
        assert got.dtype == rows.dtype
        want = scatter_add_reference((len(counts), rows.shape[1]), dstindex, rows)
        assert got.tobytes() == want.tobytes()

    def test_negative_zero_rows_sum_to_positive_zero(self):
        # add.at starts from +0.0, so a segment of -0.0 rows sums to +0.0,
        # also where the segment fills the block and no padding follows
        rows = np.full((20, 4), -0.0, dtype=np.float32)
        rows[5:10, 1] = 1.5
        self.assert_matches_add_at([10, 10], rows)
        self.assert_matches_add_at([10, 0, 10], rows)

    def test_empty_neighbourhoods(self):
        rng = np.random.default_rng(0)
        self.assert_matches_add_at([0, 3, 0, 0, 1, 0], rng.standard_normal((4, 32)).astype(np.float32))

    def test_a_single_node(self):
        rng = np.random.default_rng(1)
        for dim in (1, 32):  # width 1 is where a block-axis sum goes pairwise
            self.assert_matches_add_at([10], rng.standard_normal((10, dim)).astype(np.float32))

    def test_every_segment_at_full_fanout(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((100 * 10, 32)) * 10.0 ** rng.integers(-4, 5, (1000, 1))
        self.assert_matches_add_at(np.full(100, 10), rows.astype(np.float32))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([1, 2, 3, 32]))
    def test_random_segments(self, seed, num_nodes, dim):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 12, num_nodes)
        counts[rng.integers(0, num_nodes)] += 1  # at least one neighbour
        total = int(counts.sum())
        rows = rng.standard_normal((total, dim)) * 10.0 ** rng.integers(-3, 4, (total, 1))
        rows[rng.random(rows.shape) < 0.1] = -0.0
        self.assert_matches_add_at(counts, rows.astype(np.float32))

    def test_full_rung_embeddings_match_the_add_at_mean(self):
        stream = build_stream(N, 300, payload_dim=DIM, seed=9)
        rt = _runtime(stream)
        replay(rt, split_batches(stream.take(np.arange(200)), 25), load=1.0)
        rest = stream.take(np.arange(200, 300))
        nodes = np.concatenate([rest.src, rest.dst])
        times = np.concatenate([rest.ts, rest.ts])
        res = rt.sampler.sample_arrays(rt.graph.csr(), nodes, times, num_nbrs=10)
        assert len(res.srcnodes)
        want = rt.memory.data.data[nodes].astype(np.float32)
        agg = scatter_add_reference(want.shape, res.dstindex, rt.memory.data.data[res.srcnodes])
        counts = np.bincount(res.dstindex, minlength=len(nodes)).astype(np.float32)
        hot = counts > 0
        want[hot] = 0.5 * (want[hot] + agg[hot] / counts[hot, None])
        got, _ = rt._embed_sampled(nodes, times, 10, extra=0)
        assert got.tobytes() == want.tobytes()


class TestPoisonedStreamEquivalence:
    def _final_state(self, clean, served, lateness, batch_size):
        rt = _runtime(clean, lateness=lateness)
        for b in split_batches(served, batch_size):
            rt.submit(b)
            rt.step()
        rt.drain()
        return rt

    def test_bit_identical_state_and_full_accounting(self):
        clean = build_stream(N, 300, payload_dim=DIM, seed=7)
        poisoned, lateness, injected = poison_stream(clean, N, seed=8)
        rt_c = self._final_state(clean, clean, 0.0, 17)
        rt_p = self._final_state(clean, poisoned, lateness, 23)

        assert rt_c.memory.state_digest() == rt_p.memory.state_digest()
        assert rt_c.mailbox.state_digest() == rt_p.mailbox.state_digest()

        stats = rt_p.stats()
        n_junk = sum(v for k, v in injected.items() if k != "redelivered")
        assert sum(_quarantined(stats).values()) == n_junk
        assert stats["ingest:duplicates"] == injected["redelivered"]
        assert ledger_violations(stats) == []
        # every quarantined event carries a structured reason
        assert all(q.reason for q in rt_p.ingest.quarantine)

    def test_equivalence_with_multislot_mailbox(self, monkeypatch):
        clean = build_stream(N, 200, payload_dim=DIM, seed=9)
        monkeypatch.setattr(serve_replay, "SHUFFLE_WINDOW", 4)
        poisoned, lateness, _ = poison_stream(clean, N, seed=10)

        def run(events, lateness):
            g = TGraph(clean.src, clean.dst, clean.ts, num_nodes=N)
            ctx = tg.TContext(g)
            mem, mb = Memory(N, DIM), Mailbox(N, DIM, slots=3)
            rt = ServeRuntime(g, ctx, mem, TSampler(10, seed=3), mailbox=mb,
                              deadline=1.0, max_queue=1 << 30,
                              lateness=lateness)
            for b in split_batches(events, 13):
                rt.submit(b)
                rt.step()
            rt.drain()
            return mem, mb

        mem_c, mb_c = run(clean, 0.0)
        mem_p, mb_p = run(poisoned, lateness)
        # digests cover mail, times, and the ring cursor in one identity
        assert mem_c.state_digest() == mem_p.state_digest()
        assert mb_c.state_digest() == mb_p.state_digest()


class TestChaos:
    def test_chaos_run_stays_valid_and_accounted(self):
        stream = build_stream(N, 400, payload_dim=DIM, seed=11)
        inj = FaultInjector(
            seed=12,
            rates={"serve.ingest": 0.2, "serve.commit": 0.2},
            schedules={"serve.poison": [(0, 3), (0, 9)]},
        )
        rt = _runtime(stream)
        with inj:
            results = replay(rt, split_batches(stream, 20), load=1.0)
        assert len(results) == 20
        sites = {e.site for e in inj.log}
        assert {"serve.ingest", "serve.commit", "serve.poison"} <= sites
        stats = rt.stats()
        assert stats["commit:rollbacks"] >= 1
        assert stats["commit:retries"] >= 1
        # poisoned batches are fully accounted as quarantined events
        q = _quarantined(stats)[RejectReason.POISONED_BATCH]
        assert q == 20 * stats["commit:rollbacks"]  # whole 20-event requests
        assert validate_state(rt.graph, rt.ctx) == []
        assert not rt.memory.validate() and not rt.mailbox.validate()
        assert np.isfinite(rt.memory.data.data).all()

    @pytest.mark.parametrize("backend", ["runtime", "cluster"])
    def test_ledger_balances_after_poison_rollback(self, backend, tmp_path):
        """A refused batch moves ledger columns, it is not counted twice —
        and it never reaches a log, so recovery reproduces the live state."""
        stream = build_stream(N, 400, payload_dim=DIM, seed=11)
        inj = FaultInjector(seed=12, schedules={"serve.poison": [(0, 3), (0, 9)]})
        if backend == "runtime":
            rt = _runtime(stream, durable_dir=str(tmp_path))
        else:
            from repro.cluster import ClusterConfig, ServeCluster

            g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
            rt = ServeCluster(
                g, tg.TContext(g), TSampler(10, seed=3), DIM,
                config=ClusterConfig(num_shards=2, durable_root=str(tmp_path)),
                deadline=1.0, max_queue=1 << 30,
            )
        with inj, rt:
            replay(rt, split_batches(stream, 20), load=1.0)
            st = rt.stats()
            rolled_back = _quarantined(st)[RejectReason.POISONED_BATCH]
            assert rolled_back > 0
            assert ledger_violations(st) == []
            assert st["ingest:buffered"] >= 0
            assert (st["ingest:released"] == st["ingest:accepted"] - st["ingest:buffered"]
                    == 400 - rolled_back)

            members = [rt] if backend == "runtime" else [
                rep for group in rt.groups for rep in group.members
            ]
            poisoned = {q.eid for q in rt.ingest.quarantine
                        if q.reason == RejectReason.POISONED_BATCH}
            logged = {int(e) for m in members for rec in m.store.recover().records
                      for e in rec.arrays["eids"]}
            assert len(poisoned) == rolled_back and len(logged) == st["ingest:released"]
            assert not logged & poisoned
            live = [(m.memory.state_digest(), m.mailbox.state_digest())
                    for m in members]
            if backend == "cluster":
                for rep in members:
                    rep.respawn()
        if backend == "runtime":
            members = [_runtime(stream, durable_dir=str(tmp_path), recover=True)]
            members[0].close()
        assert live == [(m.memory.state_digest(), m.mailbox.state_digest())
                        for m in members]

    def test_chaos_at_16x_overload(self):
        stream = build_stream(N, 400, payload_dim=DIM, seed=13)
        inj = FaultInjector(seed=14, rates={"serve.ingest": 0.1, "serve.commit": 0.1})
        rt = _runtime(stream, deadline=3e-3, max_queue=8)
        with inj:
            results = replay(rt, split_batches(stream, 20), load=16.0)
        assert len(results) == 20  # available under chaos + overload
        assert ledger_violations(rt.stats()) == []
        assert validate_state(rt.graph, rt.ctx) == []


class TestModelSwap:
    def test_swap_mid_stream_serves_new_table(self):
        stream = build_stream(N, 200, payload_dim=DIM, seed=22)
        batches = split_batches(stream, 25)
        rt = _runtime(stream)
        replay(rt, batches[:4], load=1.0)
        written = np.isfinite(rt._cache_times)
        assert written.any()
        # each written node holds its newest answered time so far
        served = TBatch.concat(batches[:4])
        newest = np.full(N, -np.inf)
        np.maximum.at(newest, np.concatenate([served.src, served.dst]),
                      np.concatenate([served.ts, served.ts]))
        np.testing.assert_array_equal(rt._cache_times[written], newest[written])
        table = np.full((N, DIM), 3.0, dtype=np.float32)
        version = rt.swap_model(table)
        assert version == 1
        # rows computed under the old model are gone
        assert rt._cache_rows is None and np.isinf(rt._cache_times).all()
        results = replay(rt, batches[4:], load=1.0)
        assert all(r.status == "ok" for r in results[-4:])
        nodes = np.arange(8, dtype=np.int64)
        np.testing.assert_array_equal(rt._rows(nodes, 0)[0], table[nodes])
        # the serve path never reaches the training memo cache
        assert rt.ctx.embed_caches == {}


class TestCacheRung:
    """The ``cache`` rung serves the engine's per-node table, causally."""

    def test_hits_under_overload_and_never_a_newer_row(self, monkeypatch):
        clean = build_stream(N, 600, payload_dim=DIM, seed=12)
        monkeypatch.setattr(serve_replay, "SHUFFLE_WINDOW", 32)
        poisoned, lateness, _ = poison_stream(clean, N, seed=12)
        rt = _runtime(clean, deadline=2e-3, max_queue=8, lateness=lateness)
        newer = causal_hits = 0
        embed_cached = rt._embed_cached

        def probe(nodes, times, extra):
            nonlocal newer, causal_hits
            stored = rt._cache_times[nodes].copy()
            causal = stored <= times
            want = rt._rows(nodes, extra)[0].astype(np.float32)
            if causal.any():
                want[causal] = rt._cache_rows[nodes[causal]]
            emb, ok = embed_cached(nodes, times, extra)
            np.testing.assert_array_equal(emb, want)
            newer += int(np.count_nonzero(np.isfinite(stored) & ~causal))
            causal_hits += int(np.count_nonzero(causal))
            return emb, ok

        rt._embed_cached = probe
        replay(rt, split_batches(poisoned, 20), load=16.0)
        stats = rt.stats()
        assert stats["ladder:cache"] > 0
        # hits are exactly the stored rows not newer than their query, and
        # a stored row newer than its query did occur (and was not served)
        assert stats["serve:cache_hits"] == causal_hits > 0
        assert newer > 0
        assert ledger_violations(stats) == []

    def test_latest_time_wins_and_ties_go_to_the_last_position(self):
        stream = build_stream(N, 50, payload_dim=DIM, seed=2)
        rt = _runtime(stream)
        nodes = np.array([5, 5, 5, 7, 7], dtype=np.int64)
        times = np.array([3.0, 9.0, 1.0, 4.0, 4.0])
        emb = np.arange(5 * DIM, dtype=np.float32).reshape(5, DIM)
        rt._remember(nodes, times, emb, None)
        assert rt._cache_times[5] == 9.0 and rt._cache_times[7] == 4.0
        np.testing.assert_array_equal(rt._cache_rows[5], emb[1])
        np.testing.assert_array_equal(rt._cache_rows[7], emb[4])

    def test_unreachable_shard_rows_never_enter_the_table(self):
        stream = build_stream(N, 300, payload_dim=DIM, seed=24)
        batches = split_batches(stream, 30)
        g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
        cluster = ServeCluster(g, tg.TContext(g), TSampler(10, seed=3), DIM,
                               config=ClusterConfig(num_shards=4),
                               deadline=1.0, max_queue=1 << 30)
        with cluster:
            cluster.groups[2].primary.crash()  # factor 1: shard 2 is unreachable
            cluster.submit(batches[0])
            result = cluster.step()
            assert result.level == "full" and not result.valid.all()
            nodes = np.unique(np.concatenate([batches[0].src, batches[0].dst]))
            dead = cluster.router.shard_of(nodes) == 2
            assert dead.any() and (~dead).any()
            assert np.isinf(cluster._cache_times[nodes[dead]]).all()
            assert np.isfinite(cluster._cache_times[nodes[~dead]]).all()

    def test_a_hit_on_an_unreachable_shard_stays_invalid(self, monkeypatch):
        """A row answered before its shard crashed may be served by the
        ``cache`` rung, but the score is not backed by authoritative
        state, so it is marked invalid."""
        stream = build_stream(N, 300, payload_dim=DIM, seed=24)
        first = split_batches(stream, 30)[0]
        g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
        cluster = ServeCluster(g, tg.TContext(g), TSampler(10, seed=3), DIM,
                               config=ClusterConfig(num_shards=4),
                               deadline=1.0, max_queue=1 << 30)
        with cluster:
            cluster.submit(first)
            assert cluster.step().level == "full"
            seen = np.unique(np.concatenate([first.src, first.dst]))
            dead = seen[cluster.router.shard_of(seen) == 2]
            live = seen[cluster.router.shard_of(seen) != 2]
            assert len(dead) and len(live) > 1
            cluster.groups[2].primary.crash()  # factor 1: shard 2 is unreachable
            monkeypatch.setattr(cluster.ladder, "decide", lambda *a, **k:
                                LadderDecision("cache", 0, 0.0, "forced"))
            k = min(len(dead), len(live) - 1)
            src = np.concatenate([dead[:k], live[:k]])
            dst = np.concatenate([live[1:k + 1], live[1:k + 1]])
            ts = np.full(2 * k, float(first.ts.max()) + 1.0)
            later = _batch(np.arange(2 * k) + 10_000, src, dst, ts)
            hits = cluster.ctx.counters["serve:cache_hits"]
            cluster.submit(later)
            result = cluster.step()
            assert result.level == "cache"
            # every endpoint was answered before the crash: all are hits
            assert cluster.ctx.counters["serve:cache_hits"] - hits == 4 * k
            assert not result.valid[:k].any() and result.valid[k:].all()


def test_one_validation_per_request(monkeypatch):
    """Scoring and ingestion share the step's one ``validate_events``."""
    import repro.serve.engine as engine_mod

    calls = []

    def counted(batch, num_nodes):
        calls.append(len(batch))
        return validate_events(batch, num_nodes)

    monkeypatch.setattr(engine_mod, "validate_events", counted)
    clean = build_stream(N, 400, payload_dim=DIM, seed=8)
    poisoned, lateness, _ = poison_stream(clean, N, seed=8)
    rt = _runtime(clean, lateness=lateness)
    replay(rt, split_batches(poisoned, 20), load=1.0)
    stats = rt.stats()
    served = sum(v for k, v in stats.items() if k.startswith("ladder:"))
    assert len(calls) == served == len(split_batches(poisoned, 20))
    assert sum(_quarantined(stats).values()) > 0
    assert ledger_violations(stats) == []


class TestRuntimeLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        stream = build_stream(N, 60, payload_dim=DIM, seed=23)
        rt = _runtime(stream, durable_dir=str(tmp_path / "wal"))
        replay(rt, split_batches(stream, 20), load=1.0)
        rt.close()
        rt.close()  # cluster teardown double-closes: must be a no-op

    def test_close_without_durable_store_is_safe(self):
        stream = build_stream(N, 60, payload_dim=DIM, seed=23)
        rt = _runtime(stream)
        rt.close()
        rt.close()
