"""Fault coverage, generated: one state machine against a single-runtime oracle.

:class:`FaultMachine` feeds the same batches to a shed-free
:class:`~repro.cluster.ServeCluster` (deadline 1e9, unbounded queue — what
``serve-cluster --check-equivalence`` runs) and to a durable single
:class:`~repro.serve.ServeRuntime`, the oracle, while hypothesis interleaves
every fault the cluster claims to survive:

* member kills (``ShardReplica.crash``) and stalls;
* a sustained hot spot on one shard, which the supervisor rebalances under
  a short rebalance window (the rebalance unit tests' constants);
* the rates of the lossy sites — RPC legs, heartbeats, replication ships and
  acks, promotion delays — set and cleared mid-stream;
* one-bit flips of a member's memory, mailbox or WAL (``apply_bitflip``),
  skipped scrub cycles and explicit scrubs;
* on both engines: poisoned and transiently faulting commits, model swaps;
  and a crash of the oracle, rebuilt with ``recover=True``.

The setup draws 1-3 shards, replication factor 1-3, ``hash`` or
``temporal`` partitioning, ``bounded`` or ``strict`` staleness, 1 or 4
mailbox slots and a seed.

Invariants: the ingest and admission ledgers balance on both engines after
every step and both quarantine exactly the poisoned batches; after every
``drain()`` the cluster's assembled state is bit-identical to the oracle's,
no maintained chunk digest has diverged, and every key in either engine's
counter table was declared (by a component at construction, or as a label
of a closed family such as ``ladder:<rung>``); at factor >= 2 ``cluster:zero_rows`` does not grow
while every group has a serving member; a recovered oracle is bit-identical
to the live one it replaced.

Combinations outside the fault model are preconditions; DESIGN.md §5
("Cluster fault model") gives the reason for each:

* at most one damaged copy per replica group between scrubs — a flip, or a
  member whose log lost acked records, waits for the next scrub or drain;
* a factor-1 member whose WAL holds an unscrubbed flip never crashes (the
  kill rule skips it, heartbeat loss stays off);
* no write reaches a flipped multi-slot mailbox before a scrub.

A failure prints the shrunk run as ``state = FaultMachine()`` followed by
one ``state.<rule>(...)`` line per step; pasted into a test body, those
lines replay it deterministically.
"""

import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ClusterConfig, ServeCluster, Supervisor
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.integrity import array_digest
from repro.resilience import SITES, FaultInjector, apply_bitflip
from repro.resilience.chaos import STALL_FACTOR, STALL_WINDOW
from repro.serve import (
    LEVELS,
    RejectReason,
    ServeRuntime,
    build_stream,
    ledger_violations,
    split_batches,
)

N, DIM, BATCH, BATCHES = 40, 4, 10, 150
#: short enough that periodic scrub cycles (and so ``scrub.skip``) come due
SCRUB_INTERVAL = 0.01
#: the rates a rule may set per lossy decision; RPC and heartbeat loss stay
#: low enough that a retry-exhausted read or a false death is too rare to draw
RATES = {
    "rpc.send.drop": (0.0, 0.02, 0.05),
    "rpc.recv.drop": (0.0, 0.02, 0.05),
    "heartbeat.drop": (0.0, 0.02),
    "repl.ship.drop": (0.0, 0.1, 0.5),
    "repl.ack.drop": (0.0, 0.1, 0.5),
    "repl.promote.delay": (0.0, 0.5, 1.0),
}
#: the rebalance rule's constants: one hot millisecond window moves nodes
SHORT_REBALANCE = {"REBALANCE_WINDOW": 1e-3, "REBALANCE_PATIENCE": 1,
                   "REBALANCE_FACTOR": 1.5}
#: endpoint rows the rule charges the hot shard per window
HOT_LOAD = 1000


#: counter families whose label is drawn from a closed set when first counted
FAMILIES = {
    "ladder:": set(LEVELS) | {"timeout"},
    "serve:degraded:": set(LEVELS[1:]),
    "ingest:quarantined:": {v for k, v in vars(RejectReason).items()
                            if k.isupper() and isinstance(v, str)},
    "kernel_faults:": set(SITES),
}


def undeclared(counters, declared):
    """Keys of *counters* neither in *declared* nor a closed-family label."""
    return sorted(
        key for key in counters if key not in declared and not any(
            key.startswith(prefix) and key[len(prefix):] in labels
            for prefix, labels in FAMILIES.items())
    )


def _poisoned(engine) -> int:
    return engine.ctx.counters.get("ingest:quarantined:" + RejectReason.POISONED_BATCH, 0)


class FaultMachine(RuleBasedStateMachine):
    """A cluster and its oracle under generated fault schedules (see module doc)."""

    @initialize(
        shards=st.integers(1, 3),
        factor=st.integers(1, 3),
        partition=st.sampled_from(["hash", "temporal"]),
        staleness=st.sampled_from(["bounded", "strict"]),
        slots=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**16),
    )
    def setup(self, shards, factor, partition, staleness, slots, seed):
        self.factor, self.slots, self.seed = factor, slots, seed
        stream = build_stream(N, BATCH * BATCHES, payload_dim=DIM, seed=seed)
        self.batches = split_batches(stream, BATCH)
        self.served = 0
        self.graph = TGraph(stream.src, stream.dst, stream.ts, num_nodes=N)
        self.cinj = FaultInjector(seed=seed)
        self.cluster = ServeCluster(
            self.graph, TContext(self.graph), TSampler(4, seed=1), DIM,
            config=ClusterConfig(
                num_shards=shards, partition=partition, seed=seed,
                replication_factor=factor, staleness_bound=staleness,
                scrub_interval=SCRUB_INTERVAL,
            ),
            mailbox_slots=slots, stream=stream,
            deadline=1e9, max_queue=1 << 30,
        )
        #: what the cluster's components declared at construction
        self.cluster_declared = set(self.cluster.ctx.counters)
        #: decision -> indices of the batches whose commit it faults
        self.faulted = {"serve.poison": set(), "serve.commit": set()}
        self.oracle_dir = tempfile.mkdtemp(prefix="fault-machine-")
        self.oracle = self._oracle(recover=False)
        self.oracle_poisoned = 0  # quarantined by earlier oracle incarnations
        #: (shard, member) -> tiers flipped since that member was last scrubbed
        self.flips = {}
        #: groups with a member whose log lost acked records, until a drain
        self.gapped = set()

    def _oracle(self, recover):
        """A fresh oracle over the durable directory; its rids start at 0."""
        self.oracle_base = self.served
        self.oinj = FaultInjector(seed=self.seed, schedules={
            decision: [(0, i - self.served) for i in batches if i >= self.served]
            for decision, batches in self.faulted.items()
        })
        oracle = ServeRuntime(
            self.graph, TContext(self.graph), Memory(N, DIM), TSampler(4, seed=1),
            mailbox=Mailbox(N, DIM, slots=self.slots),
            durable_dir=self.oracle_dir, snapshot_every=8, recover=recover,
            deadline=1e9, max_queue=1 << 30,
        )
        self.oracle_declared = set(oracle.ctx.counters)
        return oracle

    # ---- what the fault model excludes -------------------------------------------

    def _members(self):
        return [(s, m) for s in range(len(self.cluster.groups))
                for m in range(self.factor)]

    def _damaged(self, shard):
        return shard in self.gapped or any(s == shard for s, _ in self.flips)

    def _wal_flipped(self):
        return any("wal" in tiers for tiers in self.flips.values())

    def _writes_allowed(self):
        return self.slots == 1 or not any(
            "mailbox" in tiers for tiers in self.flips.values())

    def _kill_targets(self):
        return [t for t in self._members()
                if not (self.factor == 1 and "wal" in self.flips.get(t, ()))]

    def _flip_targets(self):
        groups = self.cluster.groups
        return [(s, m) for s, m in self._members()
                if groups[s].serving(m) and not self._damaged(s)]

    # ---- serving, on both engines ------------------------------------------------

    @precondition(lambda self: self.served < len(self.batches)
                  and self._writes_allowed())
    @rule(k=st.integers(1, 8))
    def serve(self, k):
        ctx = self.cluster.ctx
        for batch in self.batches[self.served:self.served + k]:
            zero_rows = ctx.counters["cluster:zero_rows"]
            with self.cinj:
                self.cluster.submit(batch)
                self.cluster.step()
            if self.factor >= 2 and all(g.any_serving() for g in self.cluster.groups):
                assert ctx.counters["cluster:zero_rows"] == zero_rows
            with self.oinj:
                self.oracle.submit(batch)
                self.oracle.step()
            self.served += 1

    @precondition(lambda self: self._writes_allowed())
    @rule()
    def drain(self):
        with self.cinj:
            self.cluster.drain()
        with self.oinj:
            self.oracle.drain()
        self.flips.clear()
        self.gapped.clear()
        data, times = self.cluster.memory_image()
        assert array_digest(data, times) == self.oracle.memory.state_digest()
        mailbox = [t for t in self.cluster.mailbox_image() if t is not None]
        assert array_digest(*mailbox) == self.oracle.mailbox.state_digest()
        for group in self.cluster.groups:
            for rep in group.members:
                for _, digest in rep.digests.components():
                    assert digest.diverged() == []
        assert undeclared(self.cluster.ctx.counters, self.cluster_declared) == []
        assert undeclared(self.oracle.ctx.counters, self.oracle_declared) == []

    @precondition(lambda self: self.served < len(self.batches))
    @rule(transient=st.booleans())
    def fault_next_commit(self, transient):
        """Poison the next commit (``serve.poison``) or fault it once (``serve.commit``)."""
        decision = "serve.commit" if transient else "serve.poison"
        self.faulted[decision].add(self.served)
        for inj, rid in ((self.cinj, self.served),
                         (self.oinj, self.served - self.oracle_base)):
            inj.schedules.setdefault(decision, set()).add((0, rid))

    @rule(seed=st.integers(0, 2**16))
    def swap_model(self, seed):
        table = np.random.default_rng(seed).normal(size=(N, DIM)).astype(np.float32)
        self.cluster.swap_model(table)
        self.oracle.swap_model(table)

    @rule()
    def crash_oracle(self):
        live = self.oracle.memory.state_digest(), self.oracle.mailbox.state_digest()
        self.oracle_poisoned += _poisoned(self.oracle)
        self.oracle.close()
        self.oracle = self._oracle(recover=True)
        assert (self.oracle.memory.state_digest(),
                self.oracle.mailbox.state_digest()) == live

    # ---- cluster faults ----------------------------------------------------------

    @precondition(lambda self: self._kill_targets())
    @rule(pick=st.integers(0, 8))
    def kill(self, pick):
        targets = self._kill_targets()
        shard, member = targets[pick % len(targets)]
        tiers = self.flips.pop((shard, member), set())
        if "wal" in tiers:
            # its respawn comes back short of what it acked: one damaged copy
            self.gapped.add(shard)
        self.cluster.groups[shard].members[member].crash()

    @rule(pick=st.integers(0, 8))
    def stall(self, pick):
        members = self._members()
        shard, member = members[pick % len(members)]
        self.cluster.groups[shard].members[member].stall(
            self.cluster.clock.now(), STALL_FACTOR, STALL_WINDOW)

    @rule(decision=st.sampled_from(sorted(RATES)), level=st.integers(0, 2))
    def set_rate(self, decision, level):
        rates = RATES[decision]
        rate = rates[level % len(rates)]
        if decision == "heartbeat.drop" and self.factor == 1 and self._wal_flipped():
            rate = 0.0  # a false death would crash the only, damaged, copy
        self.cinj.rates[decision] = rate

    @precondition(lambda self: self._flip_targets())
    @rule(tier=st.sampled_from(["memory", "mailbox", "wal"]),
          pick=st.integers(0, 8), byte=st.integers(0, 1 << 20),
          bit=st.integers(0, 7))
    def flip(self, tier, pick, byte, bit):
        if tier == "wal" and self.factor == 1 and self.cinj.rates.get("heartbeat.drop"):
            return  # heartbeat loss could crash the member before a scrub
        targets = self._flip_targets()
        shard, member = targets[pick % len(targets)]
        rep = self.cluster.groups[shard].members[member]
        if apply_bitflip(rep, ("flip", tier, byte, bit)):
            self.flips.setdefault((shard, member), set()).add(tier)

    @precondition(lambda self: len(self.cluster.groups) > 1)
    @rule(pick=st.integers(0, 8), windows=st.integers(1, 3))
    def rebalance(self, pick, windows):
        """A hot spot on one shard, sustained across *windows* short windows.

        The rule first waits out the window open at the default constants,
        then ticks under the short ones; a member not serving (killed,
        recovering, mid-promotion) makes the supervisor skip the move."""
        sup, clock = self.cluster.supervisor, self.cluster.clock
        hot = pick % len(self.cluster.groups)
        touched = self.cluster.router.owned_nodes(hot)[:8]
        with self.cinj:
            clock.advance(Supervisor.REBALANCE_WINDOW)
            with mock.patch.multiple(Supervisor, **SHORT_REBALANCE):
                for _ in range(windows):
                    sup.note_load({hot: HOT_LOAD}, touched)
                    sup.tick()
                    clock.advance(Supervisor.REBALANCE_WINDOW)

    @rule()
    def skip_next_scrub(self):
        counters = self.cluster.ctx.counters
        cycle = int(counters["integrity:cycles"] + counters["integrity:skipped_cycles"])
        self.cinj.schedules.setdefault("scrub.skip", set()).add((0, cycle))

    @rule()
    def scrub(self):
        with self.cinj:
            self.cluster.scrubber.scrub_now()
        groups = self.cluster.groups
        self.flips = {(s, m): tiers for (s, m), tiers in self.flips.items()
                      if not groups[s].serving(m)}

    # ---- invariants --------------------------------------------------------------

    @invariant()
    def ledgers_balance(self):
        for engine in (self.cluster, self.oracle):
            assert ledger_violations(engine.stats()) == []

    @invariant()
    def exactly_the_poisoned_batches_are_quarantined(self):
        expected = sum(len(self.batches[i]) for i in self.faulted["serve.poison"]
                       if i < self.served)
        assert _poisoned(self.cluster) == expected
        assert self.oracle_poisoned + _poisoned(self.oracle) == expected

    def teardown(self):
        if not hasattr(self, "cluster"):
            return
        try:
            if not self._writes_allowed():
                self.scrub()
            self.drain()
        finally:
            self.cluster.close()
            self.oracle.close()
            shutil.rmtree(self.oracle_dir, ignore_errors=True)


TestFaultMachine = FaultMachine.TestCase
TestFaultMachine.settings = settings(
    max_examples=120, stateful_step_count=60, derandomize=True, database=None,
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
)


def test_the_rebalance_rule_moves_nodes_under_faults():
    """The rule is not vacuous: a hot spot moves nodes while RPC legs and
    ships drop, a member is then killed, and the drain still equals the oracle."""
    state = FaultMachine()
    state.setup(shards=2, factor=2, partition="hash", staleness="bounded",
                slots=4, seed=3)
    try:
        state.set_rate(decision="rpc.send.drop", level=2)
        state.set_rate(decision="repl.ship.drop", level=1)
        state.serve(k=8)
        state.rebalance(pick=1, windows=2)
        state.kill(pick=2)
        state.serve(k=8)
        state.ledgers_balance()
        counters = state.cluster.ctx.counters
        assert counters["cluster:rebalances"] >= 1 and counters["cluster:nodes_moved"] > 0
        assert counters["rpc:dropped_sends"] > 0 and counters["rpc:dropped_ships"] > 0
    finally:
        state.teardown()


@pytest.mark.parametrize("seed", range(4))
def test_a_rebalance_hands_over_repaired_rows_not_a_pending_flip(seed):
    """A memory flip no scrub has seen yet, on the hot member of a factor-1
    group, then one rebalance: the hand-off verifies and repairs both groups
    first, so the flip is counted and repaired instead of being adopted as a
    write, and the drain equals the oracle."""
    state = FaultMachine()
    state.setup(shards=2, factor=1, partition="hash", staleness="bounded",
                slots=1, seed=seed)
    try:
        state.serve(k=8)
        counters = state.cluster.ctx.counters
        assert counters["integrity:divergences"] == 0
        state.flip(tier="memory", pick=0, byte=0, bit=0)
        assert state.flips == {(0, 0): {"memory"}}
        state.rebalance(pick=0, windows=1)
        assert counters["cluster:rebalances"] == 1
        assert counters["integrity:divergences"] >= 1
        state.drain()
    finally:
        state.teardown()
