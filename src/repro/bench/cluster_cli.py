"""``python -m repro.bench serve-cluster``: sharded serving under chaos.

Replays an event stream through a :class:`~repro.cluster.ServeCluster`
at a chosen offered load, optionally replicating each shard
(``--replication-factor N`` puts a primary plus N-1 lease-fenced
followers on distinct hosts) and arming the shard-level fault sites
(``--chaos`` kills and stalls group members and drops RPC legs,
log-shipping legs, and heartbeats mid-stream), and prints per-shard plus
cluster-level statistics: failovers, promotions, quorum commits, retries,
hedge wins, rebalance events, read availability, and p50/p99 latency.

``--scrub-interval`` tunes the anti-entropy scrubber's period on the
simulated clock and ``--inject-bitflip TIER[:SHARD[:MEMBER]]`` flips one
state bit out-of-band after the replay (tier ``memory``, ``mailbox`` or
``wal``), then requires the scrubber to detect and repair it; scrub
statistics (cycles, chunks, divergences, rows repaired, wall seconds and
their share of serve time) print with the summary.

``--check-equivalence`` additionally replays the same stream through a
clean single :class:`~repro.serve.runtime.ServeRuntime` and requires the
cluster's assembled final ``Memory``/``Mailbox`` state to be
bit-identical — the cluster-level recovery guarantee.  With
``--replication-factor >= 2`` it also requires that no read was ever
zero-filled (reads must fail over to surviving members).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..data import available_datasets, get_dataset

__all__ = ["build_serve_cluster_parser", "serve_cluster_main",
           "add_replay_flags", "load_stream", "run_replay", "print_summary",
           "exit_code"]


# ---- shared by the ``serve`` and ``serve-cluster`` subcommands -----------------------


def add_replay_flags(parser: argparse.ArgumentParser) -> None:
    """Stream, offered-load, and admission flags of both serving subcommands."""
    parser.add_argument("--dataset", choices=available_datasets(), default=None,
                        help="serve a real dataset's event stream "
                             "(default: synthetic)")
    parser.add_argument("--events", type=int, default=2000,
                        help="synthetic stream length (ignored with --dataset)")
    parser.add_argument("--num-nodes", type=int, default=200,
                        help="synthetic graph size (ignored with --dataset)")
    parser.add_argument("--payload-dim", type=int, default=16)
    parser.add_argument("--dim-mem", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=50,
                        help="events per serving request")
    parser.add_argument("--load", type=float, default=1.0,
                        help="offered load as a multiple of the full-quality "
                             "service rate (16 = heavy overload)")
    parser.add_argument("--deadline", type=float, default=2e-2,
                        help="per-request budget in simulated seconds")
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--shed-policy", choices=("reject-new", "drop-oldest"),
                        default="reject-new")
    parser.add_argument("--num-nbrs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)


def load_stream(args):
    """``(stream, num_nodes)``: ``--dataset``'s events, else a synthetic stream."""
    import numpy as np

    from ..serve import build_stream
    from ..core.batch import TBatch

    if args.dataset is None:
        stream = build_stream(args.num_nodes, args.events,
                              payload_dim=args.payload_dim, seed=args.seed)
        return stream, args.num_nodes
    d = get_dataset(args.dataset)
    payload = d.efeat[:, : args.payload_dim] if d.efeat is not None else None
    stream = TBatch(np.arange(d.num_edges), d.src, d.dst, d.ts, payload)
    return stream, d.num_nodes


def run_replay(engine, batches, load: float = 1.0, injector=None):
    """Replay *batches* at *load*, under *injector* when one is armed."""
    from contextlib import nullcontext

    from ..serve import replay

    with injector if injector is not None else nullcontext():
        return replay(engine, batches, load=load)


def print_summary(stats_rows, results, ctx, injector=None) -> None:
    """The stats rows, then status counts, latency percentiles, faults fired."""
    for key, value in stats_rows:
        print(f"  {key:34s} {value}")
    statuses = {s: sum(1 for r in results if r.status == s)
                for s in ("ok", "shed", "timeout")}
    print(f"  statuses: ok={statuses['ok']} shed={statuses['shed']} "
          f"timeout={statuses['timeout']}")
    lat = ctx.stats().latency
    if lat is not None:
        print(f"  latency: p50={lat.p50:.4g}s p99={lat.p99:.4g}s (n={lat.count})")
    if injector is not None:
        print(f"  chaos: {len(injector.log)} faults fired")


def exit_code(failures: List[str], assert_valid: bool, all_clear: str) -> int:
    """Report *failures* on stderr; they are fatal only under ``--assert-valid``."""
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1 if assert_valid else 0
    if assert_valid:
        print(f"  {all_clear}")
    return 0


def build_serve_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench serve-cluster",
        description="Replay an event stream through the sharded serving cluster.",
    )
    parser.add_argument("--shards", type=int, default=4,
                        help="number of shard replica groups")
    parser.add_argument("--replication-factor", type=int, default=1,
                        help="members per shard group (1 primary + N-1 "
                             "followers on distinct hosts)")
    parser.add_argument("--ack-quorum", type=int, default=None,
                        help="durable-append acks per quorum commit "
                             "(default: majority)")
    parser.add_argument("--staleness-bound", choices=("bounded", "strict"),
                        default="bounded",
                        help="'bounded' follower reads lag by their queue; "
                             "'strict' forces promotion before reading")
    parser.add_argument("--partition", choices=("hash", "temporal"),
                        default="hash", help="node partitioning policy")
    add_replay_flags(parser)
    parser.add_argument("--mailbox-slots", type=int, default=1)
    parser.add_argument("--durable-root", default=None,
                        help="root directory for the per-shard WALs "
                             "(default: a private temp dir)")
    parser.add_argument("--fsync", choices=("always", "batch", "never"),
                        default="batch")
    parser.add_argument("--snapshot-every", type=int, default=64,
                        help="applied batches between per-shard snapshots")
    parser.add_argument("--scrub-interval", type=float, default=0.25,
                        help="anti-entropy scrub period in simulated "
                             "seconds (<= 0 disables periodic scrubbing; "
                             "the terminal drain pass always runs)")
    parser.add_argument("--inject-bitflip", default=None,
                        metavar="TIER[:SHARD[:MEMBER]]",
                        help="flip one state bit after the replay, bypassing "
                             "the write path, then let the scrubber detect "
                             "and repair it; TIER is memory|mailbox|wal "
                             "(default shard 1, last group member)")
    parser.add_argument("--chaos", action="store_true",
                        help="arm the shard fault sites: shard kills + "
                             "stalls, RPC drops, heartbeat loss")
    parser.add_argument("--kill-shard", type=int, default=None, metavar="S",
                        help="deterministically kill shard S's primary "
                             "mid-stream (at the request 1/3 into the replay)")
    parser.add_argument("--check-equivalence", action="store_true",
                        help="also replay through a clean single runtime and "
                             "require bit-identical final state (runs the "
                             "cluster shed-free)")
    parser.add_argument("--assert-valid", action="store_true",
                        help="exit nonzero on violated invariants (state, "
                             "ingestion and admission ledgers)")
    return parser


def serve_cluster_main(argv: Optional[List[str]] = None) -> int:
    from ..cluster import ClusterConfig, ServeCluster
    from ..core import Mailbox, Memory, TContext, TGraph, TSampler
    from ..integrity import array_digest
    from ..resilience import FaultInjector, apply_bitflip
    from ..serve import ServeRuntime, ledger_violations, split_batches
    from ..spans import record, span

    args = build_serve_cluster_parser().parse_args(argv)
    stream, num_nodes = load_stream(args)
    batches = split_batches(stream, args.batch_size)

    reliable = args.check_equivalence
    config = ClusterConfig(
        num_shards=args.shards,
        partition=args.partition,
        seed=args.seed,
        replication_factor=args.replication_factor,
        ack_quorum=args.ack_quorum,
        staleness_bound=args.staleness_bound,
        durable_root=args.durable_root,
        fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        scrub_interval=args.scrub_interval,
    )

    flip_target = None
    if args.inject_bitflip is not None:
        parts = args.inject_bitflip.split(":")
        tier = parts[0]
        if tier not in ("memory", "mailbox", "wal"):
            print(f"--inject-bitflip: unknown tier {tier!r} "
                  "(memory|mailbox|wal)", file=sys.stderr)
            return 2
        shard = int(parts[1]) if len(parts) > 1 else min(1, args.shards - 1)
        member = (int(parts[2]) if len(parts) > 2
                  else args.replication_factor - 1)
        if not (0 <= shard < args.shards
                and 0 <= member < args.replication_factor):
            print("--inject-bitflip: shard/member out of range",
                  file=sys.stderr)
            return 2
        flip_target = (tier, shard, member)

    injector = None
    schedules = {}
    if args.kill_shard is not None:
        # the primary is member 0, whose decision extra is the shard id
        schedules["shard.crash"] = {
            (0, max(1, len(batches) // 3), args.kill_shard)
        }
    if args.chaos or schedules:
        rates = {}
        if args.chaos:
            rates = {"rpc.send.drop": 0.03, "rpc.recv.drop": 0.03,
                     "shard.crash": 0.002, "shard.stall": 0.01,
                     "heartbeat.drop": 0.02}
            if args.replication_factor > 1:
                rates.update({"repl.ship.drop": 0.02, "repl.ack.drop": 0.02,
                              "repl.promote.delay": 0.05})
        injector = FaultInjector(seed=args.seed, rates=rates,
                                 schedules=schedules)

    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=num_nodes)
    ctx = TContext(g)
    cluster = ServeCluster(
        g, ctx, TSampler(args.num_nbrs, seed=args.seed), args.dim_mem,
        config=config, mailbox_slots=args.mailbox_slots,
        deadline=1e9 if reliable else args.deadline,
        max_queue=1 << 30 if reliable else args.max_queue,
        shed_policy=args.shed_policy,
        stream=stream,
    )

    print(f"replaying {len(stream)} events in {len(batches)} requests "
          f"over {args.shards} shards x {args.replication_factor} replicas "
          f"({args.partition}) at {args.load:g}x load")
    flip_applied = False
    with record() as rec:
        with span("serve"):
            results = run_replay(cluster, batches, args.load, injector)
        if flip_target is not None:
            tier, shard, member = flip_target
            flip_applied = apply_bitflip(
                cluster.groups[shard].members[member],
                ("flip", tier, 104729 + args.seed, 1 + args.seed % 7),
            )
            print(f"  injected bit flip: tier={tier} shard={shard} "
                  f"member={member} applied={flip_applied}")
            cluster.drain()  # the scrub pass that detects + repairs the flip
    seconds = rec.totals()

    stats = cluster.stats()
    print_summary(sorted(stats.items()), results, ctx, injector)

    zero_rows = stats["cluster:zero_rows"]
    served_ok = [r for r in results if r.status == "ok"]
    fully_valid = sum(
        1 for r in served_ok if r.valid is None or bool(r.valid.all())
    )
    availability = fully_valid / max(1, len(results))
    print(f"  read availability: {availability:.4f} "
          f"({fully_valid}/{len(results)} requests fully valid, "
          f"{zero_rows} zero-filled rows)")
    scrub, serve = seconds.get("scrub", 0.0), seconds["serve"]
    overhead = scrub / serve if serve > 0 else 0.0
    print(f"  scrub: cycles={stats.get('integrity:cycles', 0)} "
          f"skipped={stats.get('integrity:skipped_cycles', 0)} "
          f"chunks={stats.get('integrity:chunks_scrubbed', 0)} "
          f"divergences={stats.get('integrity:divergences', 0)} "
          f"rows_repaired={stats.get('integrity:rows_repaired', 0)} "
          f"seconds={scrub:.4f} ({overhead:.2%} of serve wall time)")

    failures = ledger_violations(stats)
    if flip_target is not None:
        if not flip_applied:
            failures.append(
                f"--inject-bitflip {args.inject_bitflip}: the targeted tier "
                "held no bytes to corrupt"
            )
        elif stats.get("integrity:divergences", 0) < 1:
            failures.append(
                "injected bit flip went undetected by the scrubber"
            )
        else:
            for group in cluster.groups:
                for rep in group.members:
                    if rep.digests is None:
                        continue
                    for comp, cd in rep.digests.components():
                        if cd.diverged():
                            failures.append(
                                f"shard {group.shard_id} member "
                                f"{rep.member_id}: {comp} still divergent "
                                "after repair"
                            )
    if args.check_equivalence and args.replication_factor >= 2:
        # With a surviving member per group, no read may ever zero-fill.
        if zero_rows > 0:
            failures.append(
                f"{zero_rows} rows zero-filled despite replication factor "
                f"{args.replication_factor} (reads must fail over)"
            )
    if args.check_equivalence:
        data, times = cluster.memory_image()
        mb_image = cluster.mailbox_image()
        g2 = TGraph(stream.src, stream.dst, stream.ts, num_nodes=num_nodes)
        ctx2 = TContext(g2)
        mem = Memory(num_nodes, args.dim_mem)
        mailbox = (Mailbox(num_nodes, args.dim_mem, slots=args.mailbox_slots)
                   if args.mailbox_slots > 0 else None)
        single = ServeRuntime(
            g2, ctx2, mem, TSampler(args.num_nbrs, seed=args.seed),
            mailbox=mailbox, deadline=1e9, max_queue=1 << 30,
        )
        run_replay(single, batches, args.load)
        same = mem.state_digest() == array_digest(data, times)
        if mailbox is not None and mb_image is not None:
            mail, mtime, cursor = mb_image
            image_digest = (array_digest(mail, mtime) if cursor is None
                            else array_digest(mail, mtime, cursor))
            same = same and mailbox.state_digest() == image_digest
        print(f"  cluster/single-replica equivalence: "
              f"{'bit-identical' if same else 'DIVERGED'}")
        if not same:
            failures.append(
                "cluster final state diverged from clean single-replica replay"
            )
    cluster.close()

    return exit_code(failures, args.assert_valid, "all cluster invariants hold")
