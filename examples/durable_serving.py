"""Durable serving: crash-consistent state with a write-ahead log.

`examples/online_serving.py` shows the serving runtime surviving bad
*inputs*; this example shows it surviving a bad *machine*.  With
``durable_dir`` set, `ServeRuntime` logs every committed `EventBatch` to
an append-only write-ahead log *before* applying it (WAL-then-apply),
so a crash at any byte offset — torn write, lost fsync, power cut —
recovers the exact committed prefix and nothing else:

1. a clean durable replay, showing the WAL ledger (appends, syncs,
   segment rotations) riding along with normal serving stats;
2. a simulated power failure mid-commit (`FaultInjector` tears a WAL
   write at an arbitrary byte offset), then recovery into a *fresh*
   process: the torn tail is discarded and the recovered state is
   bit-identical to a clean run over the acknowledged prefix;
3. periodic snapshots anchoring recovery: replay cost stops growing
   with log length, and sealed segments below the snapshot compact away.

Run with:  PYTHONPATH=src python examples/durable_serving.py
"""

import shutil
import tempfile

import numpy as np

from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.resilience import FaultInjector, SimulatedDiskCrash
from repro.serve import ServeRuntime, build_stream, replay, split_batches

NUM_NODES = 120
NUM_EVENTS = 1200
DIM = 16


def make_runtime(topology, durable_dir=None, snapshot_every=None,
                 recover=False, injector=None):
    g = TGraph(topology.src, topology.dst, topology.ts, num_nodes=NUM_NODES)
    ctx = TContext(g)
    memory = Memory(NUM_NODES, DIM)
    mailbox = Mailbox(NUM_NODES, DIM)
    sampler = TSampler(10, seed=3)
    return ServeRuntime(
        g, ctx, memory, sampler, mailbox=mailbox, injector=injector,
        durable_dir=durable_dir, snapshot_every=snapshot_every,
        recover=recover,
    )


def show(title, runtime, prefix="durable"):
    print(f"\n== {title} ==")
    for key, value in runtime.stats().items():
        if key.startswith(prefix) and value:
            print(f"  {key}: {value}")


def main() -> None:
    clean = build_stream(NUM_NODES, NUM_EVENTS, payload_dim=DIM, seed=11)
    batches = split_batches(clean, 40)
    wal_dir = tempfile.mkdtemp(prefix="durable-serving-")
    try:
        # 1. Clean durable replay: every commit hits the log first.
        with make_runtime(clean, durable_dir=wal_dir) as rt:
            replay(rt, batches, load=1.0)
            reference = rt.memory.data.data.copy()
            show("clean durable replay", rt)

        # 2. Power failure mid-commit.  The injector tears the WAL write
        #    of the 6th batch at an arbitrary byte offset and kills the
        #    "process" with SimulatedDiskCrash — exactly what a power cut
        #    during a partially flushed append looks like.
        crash_dir = tempfile.mkdtemp(prefix="durable-crash-")
        injector = FaultInjector(seed=13, schedules={"disk.write.torn": [(0, 5)]})
        rt2 = make_runtime(clean, durable_dir=crash_dir, injector=injector)
        survived = 0
        try:
            with injector:
                for batch in batches:
                    rt2.submit(batch)
                    rt2.drain()
                    survived += 1
        except SimulatedDiskCrash as crash:
            print(f"\n== crash: {crash} (after {survived} acknowledged "
                  "batches) ==")

        # Recovery in a fresh runtime: replay() of the log stops at the
        # torn record, truncates the invalid tail, and rebuilds state via
        # the same staging path live commits use.
        rt3 = make_runtime(clean, durable_dir=crash_dir, recover=True)
        show("recovered from torn write", rt3, prefix="durable:recovered")

        # The recovered state must equal a clean run over the prefix.
        rt4 = make_runtime(clean)
        replay(rt4, batches[:survived], load=1.0)
        same = np.array_equal(rt3.memory.data.data, rt4.memory.data.data)
        print(f"  recovered state vs clean {survived}-batch replay: "
              f"{'bit-identical' if same else 'DIVERGED'}")
        rt3.close()
        shutil.rmtree(crash_dir, ignore_errors=True)

        # 3. Snapshots bound recovery cost: with snapshot_every=10, the
        #    final image covers most of the log, recovery replays only
        #    the suffix, and compaction drops the sealed segments below.
        snap_dir = tempfile.mkdtemp(prefix="durable-snap-")
        with make_runtime(clean, durable_dir=snap_dir,
                          snapshot_every=10) as rt5:
            replay(rt5, batches, load=1.0)
        rt6 = make_runtime(clean, durable_dir=snap_dir, recover=True)
        show("recovery anchored by snapshot", rt6, prefix="durable:recovered")
        same = np.array_equal(rt6.memory.data.data, reference)
        print(f"  recovered state vs live run: "
              f"{'bit-identical' if same else 'DIVERGED'}")
        rt6.close()
        shutil.rmtree(snap_dir, ignore_errors=True)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
