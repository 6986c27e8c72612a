"""Durability cost of the write-ahead log on the serving commit path.

WAL-then-apply makes every committed batch durable *before* it touches
memory/mailbox, so the price of crash consistency is paid on the commit
hot path.  This benchmark measures that price directly: the same
committed batch stream through ``StateCommitter`` with no store, and
with a :class:`DurableStateStore` under each fsync policy — plus the
other half of the durability trade, recovery time as a function of log
length (with and without a snapshot anchoring the replay).

The default policy is ``batch`` (group commit): the WAL may add at most
``WAL_BUDGET_US`` microseconds to each commit, which is what makes
durable serving on by default a reasonable choice.
"""

import shutil
import tempfile
import time

import numpy as np
import pytest

from conftest import report_table
from repro.core import Mailbox, Memory
from repro.durable import DurableStateStore
from repro.serve import StateCommitter, build_stream, recover_serve_state, split_batches

NUM_NODES = 2000
DIM = 16
BATCH_EVENTS = 50
N_COMMITS = 400
REPEATS = 3
#: Wall microseconds the ``batch`` policy may add to one commit.  A
#: 50-event request costs ~2.5 ms on the ``serve_clean`` perf workload
#: (~20k events/s), so 150 us keeps durability under ~6 % of a request.
#: The budget is absolute: the bare commit is itself only ~45 us, so a
#: share of it would flag every speedup of the commit as a WAL regression.
WAL_BUDGET_US = 150.0


def _batches(n_commits):
    stream = build_stream(NUM_NODES, n_commits * BATCH_EVENTS,
                          payload_dim=DIM, seed=11)
    return split_batches(stream, BATCH_EVENTS)


def _one_pass(batches, store_factory):
    """Wall seconds for a single commit pass over *batches*."""
    memory = Memory(NUM_NODES, DIM)
    mailbox = Mailbox(NUM_NODES, DIM)
    store, cleanup = store_factory()
    committer = StateCommitter(memory, mailbox=mailbox, store=store)
    t0 = time.perf_counter()
    for batch in batches:
        committer.commit(batch)
    if store is not None:
        store.sync()
    elapsed = time.perf_counter() - t0
    if store is not None:
        store.close()
    cleanup()
    return elapsed


def _commit_seconds(batches, factories):
    """Best-of-REPEATS seconds per config, measured round-robin.

    Interleaving the configs (rather than timing each one's repeats
    back to back) spreads machine-load drift evenly across them; the
    first round is a warmup and is discarded.
    """
    best = {name: float("inf") for name in factories}
    for rep in range(REPEATS + 1):
        for name, factory in factories.items():
            elapsed = _one_pass(batches, factory)
            if rep > 0:
                best[name] = min(best[name], elapsed)
    return best


def _none_factory():
    return None, lambda: None


def _store_factory(fsync):
    def make():
        d = tempfile.mkdtemp(prefix="walbench-")
        return (DurableStateStore(d, fsync=fsync),
                lambda: shutil.rmtree(d, ignore_errors=True))
    return make


def _recovery_seconds(n_commits, snapshot):
    d = tempfile.mkdtemp(prefix="walrec-")
    try:
        memory = Memory(NUM_NODES, DIM)
        mailbox = Mailbox(NUM_NODES, DIM)
        store = DurableStateStore(d, fsync="never")
        committer = StateCommitter(
            memory, mailbox=mailbox, store=store,
            snapshot_every=(3 * n_commits) // 4 if snapshot else None,
        )
        for batch in _batches(n_commits):
            committer.commit(batch)
        store.close()

        mem2 = Memory(NUM_NODES, DIM)
        mail2 = Mailbox(NUM_NODES, DIM)
        store2 = DurableStateStore(d, fsync="never")
        t0 = time.perf_counter()
        info = recover_serve_state(store2, mem2, mail2)
        elapsed = time.perf_counter() - t0
        store2.close()
        np.testing.assert_array_equal(mem2.data.data, memory.data.data)
        return elapsed, info["batches_replayed"]
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_wal_commit_overhead_and_recovery():
    batches = _batches(N_COMMITS)
    timings = _commit_seconds(batches, {
        "(no WAL)": _none_factory,
        "never": _store_factory("never"),
        "batch": _store_factory("batch"),
        "always": _store_factory("always"),
    })
    base = timings.pop("(no WAL)")
    rows = [["(no WAL)", f"{base / N_COMMITS * 1e6:.1f}", "-", "-"]]
    added_us = {}
    for fsync, secs in timings.items():
        added_us[fsync] = (secs - base) / N_COMMITS * 1e6
        rows.append([
            fsync,
            f"{secs / N_COMMITS * 1e6:.1f}",
            f"{added_us[fsync]:+.1f}",
            f"{(secs - base) / base * 100.0:+.1f}%",
        ])

    rec_rows = []
    for n_commits in (100, 400, 1600):
        plain, replayed = _recovery_seconds(n_commits, snapshot=False)
        snapped, snap_replayed = _recovery_seconds(n_commits, snapshot=True)
        rec_rows.append([
            n_commits, f"{plain * 1e3:.1f}", replayed,
            f"{snapped * 1e3:.1f}", snap_replayed,
        ])

    report_table(
        "WAL overhead: serve-path commit cost per fsync policy "
        f"({BATCH_EVENTS} events/commit, {N_COMMITS} commits)",
        ["fsync", "us/commit", "delta us", "overhead"],
        rows,
        filename="wal_overhead.txt",
        clock="wall",
    )
    report_table(
        "WAL recovery: time vs log length (snapshot anchors the replay)",
        ["commits", "replay ms", "batches replayed", "with snapshot ms",
         "replayed after snapshot"],
        rec_rows,
        filename="wal_recovery.txt",
        clock="wall",
    )

    assert added_us["batch"] <= WAL_BUDGET_US, (
        f"WAL 'batch' fsync policy adds {added_us['batch']:.1f} us per "
        f"commit (budget: {WAL_BUDGET_US:.0f} us)"
    )
