"""Online serving: a hardened streaming front end over TGN-style state.

Training assumes clean, sorted, deduplicated datasets.  A deployed TGNN
sees the opposite: malformed events, at-least-once redelivery, bounded
out-of-order arrival, and load spikes far beyond provisioned capacity.
This example drives `repro.serve.ServeRuntime` through all of it:

1. a clean replay at 1x load (everything served at full quality);
2. a *poisoned* replay — junk events, duplicates, shuffled arrivals —
   showing the quarantine ledger and the bit-identical final state;
3. a 16x overload replay, where the deadline degradation ladder
   (full fanout -> reduced fanout -> embedding cache -> memory-only)
   and admission control keep the runtime available;
4. a chaos replay with `resilience.FaultInjector` armed over the
   serving fault sites, exercising check-then-log-then-write commits
   (a poisoned batch is quarantined before the log or the tables see it).

Run with:  PYTHONPATH=src python examples/online_serving.py
"""

import numpy as np

from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.resilience import FaultInjector, validate_state
from repro.serve import (
    ServeRuntime,
    build_stream,
    poison_stream,
    replay,
    split_batches,
)

NUM_NODES = 120
NUM_EVENTS = 1200
DIM = 16


def make_runtime(topology, lateness=0.0, deadline=1.0, max_queue=1 << 30):
    # The sampling topology comes from clean history; TGraph itself
    # rejects malformed edges, which is exactly why the serving path
    # quarantines junk *before* it ever reaches graph state.
    g = TGraph(topology.src, topology.dst, topology.ts, num_nodes=NUM_NODES)
    ctx = TContext(g)
    memory = Memory(NUM_NODES, DIM)
    mailbox = Mailbox(NUM_NODES, DIM)
    sampler = TSampler(10, seed=3)
    runtime = ServeRuntime(
        g, ctx, memory, sampler, mailbox=mailbox, deadline=deadline,
        lateness=lateness, max_queue=max_queue,
    )
    return runtime


def show(title, runtime, results):
    statuses = {s: sum(1 for r in results if r.status == s)
                for s in ("ok", "shed", "timeout")}
    lat = runtime.ctx.stats().latency
    print(f"\n== {title} ==")
    print(f"  responses: {statuses}")
    if lat is not None:
        print(f"  latency: p50={lat.p50:.4g}s  p99={lat.p99:.4g}s")
    interesting = {k: v for k, v in runtime.stats().items()
                   if not isinstance(v, (int, float)) or v}
    for key, value in interesting.items():
        print(f"  {key}: {value}")


def main() -> None:
    clean = build_stream(NUM_NODES, NUM_EVENTS, payload_dim=DIM, seed=11)
    batches = split_batches(clean, 40)

    # 1. clean stream, provisioned load: everything full quality.
    rt = make_runtime(clean)
    results = replay(rt, batches, load=1.0)
    show("clean stream @ 1x load", rt, results)

    # 2. poisoned stream: junk + duplicates + bounded shuffle.  The
    #    runtime quarantines every bad event (structured reasons) and the
    #    final state is bit-identical to the clean replay above.
    poisoned, lateness, injected = poison_stream(clean, NUM_NODES, seed=5)
    rt2 = make_runtime(clean, lateness=lateness)
    results = replay(rt2, split_batches(poisoned, 40), load=1.0)
    show(f"poisoned stream ({injected})", rt2, results)
    same = np.array_equal(rt.memory.data.data, rt2.memory.data.data) and \
        np.array_equal(rt.mailbox.mail.data, rt2.mailbox.mail.data)
    print(f"  final state vs clean replay: "
          f"{'bit-identical' if same else 'DIVERGED'}")

    # 3. 16x overload with tight deadlines: the ladder degrades responses
    #    (never state) and the bounded queue sheds what cannot be served.
    rt3 = make_runtime(clean, deadline=3e-3, max_queue=8)
    results = replay(rt3, batches, load=16.0)
    show("clean stream @ 16x load, 3ms deadlines", rt3, results)

    # 4. chaos: transient ingest/commit faults retry; a poison fault
    #    corrupts a staged batch, which the staged-row check refuses
    #    before the write -- memory never holds a partial or non-finite commit.
    injector = FaultInjector(
        seed=13,
        rates={"serve.ingest": 0.1, "serve.commit": 0.1},
        schedules={"serve.poison": [(0, 6)]},
    )
    rt4 = make_runtime(clean)
    with injector:
        results = replay(rt4, batches, load=1.0)
    show("clean stream under fault injection", rt4, results)
    print(f"  faults fired: {[(e.site, e.batch) for e in injector.log]}")
    violations = validate_state(rt4.graph, rt4.ctx) + rt4.memory.validate()
    print(f"  post-chaos state validation: "
          f"{'clean' if not violations else violations}")


if __name__ == "__main__":
    main()
