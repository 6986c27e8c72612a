"""Command-line experiment runner.

Mirrors the artifact's training scripts (Appendix C): one command trains a
model/dataset/framework combination and reports per-epoch wall time and
average precision, optionally followed by timed test-set inference, then
the run's host-to-device transfers and their simulated seconds.

Examples::

    python -m repro.bench --model tgat --dataset wiki --framework tglite+opt
    python -m repro.bench --model tgn --dataset lastfm --placement cpu2gpu \
        --epochs 3 --inference
    python -m repro.bench --list-datasets

A ``serve`` subcommand replays an event stream through the hardened
online serving runtime (:mod:`repro.serve`)::

    python -m repro.bench serve --dataset wiki --load 16 --poison --assert-valid
    python -m repro.bench serve --events 5000 --load 4 --chaos

A ``scenarios`` subcommand scores streaming drift scenarios under
frozen vs continual (train-on-serve-log) models (:mod:`repro.scenarios`)::

    python -m repro.bench scenarios --list
    python -m repro.bench scenarios --matrix --events 1200 --output drift.txt

A ``serve-cluster`` subcommand replays the same streams through the
sharded, failure-tolerant serving cluster (:mod:`repro.cluster`)::

    python -m repro.bench serve-cluster --shards 4 --chaos
    python -m repro.bench serve-cluster --shards 8 --kill-shard 2 \
        --check-equivalence --assert-valid
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..data import available_datasets, get_dataset
from ..tensor.device import runtime
from .cluster_cli import (
    add_replay_flags,
    build_serve_cluster_parser,
    exit_code,
    load_stream,
    print_summary,
    run_replay,
    serve_cluster_main,
)
from .experiments import FRAMEWORKS, MODELS, Experiment, ExperimentConfig
from .scenario_cli import build_scenarios_parser, scenarios_main

__all__ = ["main", "build_parser", "build_serve_parser", "serve_main",
           "build_scenarios_parser", "scenarios_main",
           "build_serve_cluster_parser", "serve_cluster_main"]


def _hot_mb(text: str) -> float:
    """``--store-hot-mb``'s value, checked by :class:`~repro.store.StoreConfig`."""
    from ..store import StoreConfig

    try:
        return StoreConfig(hot_mb=float(text)).hot_mb
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Train/evaluate a TGNN under a chosen framework setting.",
    )
    parser.add_argument("--model", choices=MODELS, default="tgat")
    parser.add_argument("--dataset", choices=available_datasets(), default="wiki")
    parser.add_argument("--framework", choices=FRAMEWORKS, default="tglite+opt")
    parser.add_argument("--placement", choices=("gpu", "cpu2gpu"), default="gpu",
                        help="all-on-GPU or host-resident data (simulated)")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=300)
    parser.add_argument("--num-nbrs", type=int, default=10)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--dim-embed", type=int, default=32)
    parser.add_argument("--dim-time", type=int, default=32)
    parser.add_argument("--dim-mem", type=int, default=32)
    parser.add_argument("--sampling", choices=("recent", "uniform"), default="recent")
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--inference", action="store_true",
                        help="after training, time test-set inference")
    parser.add_argument("--capacity-mb", type=int, default=None,
                        help="simulated device capacity in MiB (for OOM studies)")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="train under the fault-tolerant runtime, "
                             "checkpointing every N batches")
    parser.add_argument("--checkpoint-dir", default="checkpoints",
                        help="directory for the rolling checkpoint "
                             "(default: ./checkpoints)")
    parser.add_argument("--resume", action="store_true",
                        help="resume bit-exactly from the checkpoint in "
                             "--checkpoint-dir (implies the fault-tolerant "
                             "runtime)")
    parser.add_argument("--list-datasets", action="store_true",
                        help="print dataset statistics and exit")
    parser.add_argument("--store-hot-mb", type=_hot_mb, default=None, metavar="MB",
                        help="hot-ring budget in MiB per embedding-cache layer "
                             "(default: row-count sized)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench serve",
        description="Replay an event stream through the online serving runtime.",
    )
    add_replay_flags(parser)
    parser.add_argument("--rate", type=float, default=None,
                        help="token-bucket admission rate (requests/sec)")
    parser.add_argument("--poison", action="store_true",
                        help="inject malformed/duplicate/out-of-order events "
                             "into the stream")
    parser.add_argument("--chaos", action="store_true",
                        help="arm the resilience fault injector over the "
                             "serve.ingest/serve.commit/serve.poison sites")
    parser.add_argument("--check-equivalence", action="store_true",
                        help="with --poison: also replay the clean stream and "
                             "require bit-identical final state")
    parser.add_argument("--assert-valid", action="store_true",
                        help="exit nonzero on state violations or an "
                             "unbalanced ingestion or admission ledger")
    parser.add_argument("--durable-dir", default=None,
                        help="write-ahead log each committed batch into this "
                             "directory (crash-consistent durable state)")
    parser.add_argument("--fsync", choices=("always", "batch", "never"),
                        default="batch",
                        help="WAL durability policy (with --durable-dir)")
    parser.add_argument("--snapshot-every", type=int, default=256,
                        help="commits between durable snapshots; 0 disables "
                             "(with --durable-dir)")
    parser.add_argument("--recover", action="store_true",
                        help="replay --durable-dir into memory/mailbox before "
                             "serving (resume a crashed runtime)")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    from ..core import Mailbox, Memory, TContext, TGraph, TSampler
    from ..resilience import FaultInjector, validate_state
    from ..serve import ServeRuntime, ledger_violations, poison_stream, split_batches

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.recover and args.durable_dir is None:
        parser.error("--recover needs --durable-dir: the log to recover from")
    if args.check_equivalence and not args.poison:
        parser.error("--check-equivalence needs --poison: it compares the "
                     "poisoned replay with the clean one")
    stream, num_nodes = load_stream(args)

    lateness = 0.0
    clean = stream
    if args.poison:
        stream, lateness, injected = poison_stream(clean, num_nodes, seed=args.seed)
        print("poisoned stream:", ", ".join(f"{k}={v}" for k, v in injected.items()),
              f"(lateness bound {lateness:.4g})")

    def make_runtime(reliable=False):
        g = TGraph(clean.src, clean.dst, clean.ts, num_nodes=num_nodes)
        ctx = TContext(g)
        return ServeRuntime(
            g, ctx, Memory(num_nodes, args.dim_mem),
            TSampler(args.num_nbrs, seed=args.seed),
            mailbox=Mailbox(num_nodes, args.dim_mem),
            deadline=1e9 if reliable else args.deadline,
            lateness=lateness,
            max_queue=1 << 30 if reliable else args.max_queue,
            shed_policy=args.shed_policy,
            rate=None if reliable else args.rate,
            durable_dir=None if reliable else args.durable_dir,
            durable_fsync=args.fsync,
            snapshot_every=args.snapshot_every or None,
            recover=False if reliable else args.recover,
        )

    injector = None
    if args.chaos:
        injector = FaultInjector(
            seed=args.seed,
            rates={"serve.ingest": 0.05, "serve.commit": 0.05},
            schedules={"serve.poison": [(0, 3), (0, 13)]},
        )
    runtime = make_runtime()
    batches = split_batches(stream, args.batch_size)
    print(f"replaying {len(stream)} events in {len(batches)} requests "
          f"at {args.load:g}x load")
    results = run_replay(runtime, batches, args.load, injector)
    stats = runtime.stats()
    print_summary(sorted(stats.items()), results, runtime.ctx, injector)
    runtime.close()  # seal the WAL: everything committed is now durable

    failures = ledger_violations(stats)
    violations = (validate_state(runtime.graph, runtime.ctx)
                  + runtime.memory.validate() + runtime.mailbox.validate())
    if violations:
        failures.append("state violations: " + "; ".join(violations))
    if args.check_equivalence:
        # Equivalence is defined over streams, not over shed work, so the
        # comparison replays run shed-free (unbounded queue, no deadline).
        digests = []
        for events in (stream, clean):
            shed_free = make_runtime(reliable=True)
            run_replay(shed_free, split_batches(events, args.batch_size))
            digests.append((shed_free.memory.state_digest(),
                            shed_free.mailbox.state_digest()))
        same = digests[0] == digests[1]
        print(f"  poisoned-stream equivalence: "
              f"{'bit-identical' if same else 'DIVERGED'}")
        if not same:
            failures.append("poisoned-stream final state diverged from clean replay")

    return exit_code(failures, args.assert_valid, "all serving invariants hold")


def _print_datasets() -> None:
    header = f"{'dataset':10s} {'|V|':>8s} {'|E|':>10s} {'d_v':>5s} {'d_e':>5s} {'max(t)':>10s}"
    print(header)
    print("-" * len(header))
    for name in available_datasets():
        s = get_dataset(name).stats()
        print(f"{name:10s} {s['|V|']:>8d} {s['|E|']:>10d} {s['d_v']:>5d} "
              f"{s['d_e']:>5d} {s['max(t)']:>10.2e}")


def main(argv: List[str]) -> int:
    if argv and argv[0] == "serve-cluster":
        return serve_cluster_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "scenarios":
        return scenarios_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list_datasets:
        _print_datasets()
        return 0

    cfg = ExperimentConfig(
        dataset=args.dataset,
        model=args.model,
        framework=args.framework,
        placement=args.placement,
        batch_size=args.batch_size,
        epochs=args.epochs,
        num_layers=args.num_layers,
        num_nbrs=args.num_nbrs,
        dim_time=args.dim_time,
        dim_embed=args.dim_embed,
        dim_mem=args.dim_mem,
        sampling=args.sampling,
        lr=args.lr,
        seed=args.seed,
        device_capacity=args.capacity_mb * 1024 * 1024 if args.capacity_mb else None,
        store_hot_mb=args.store_hot_mb,
    )
    print(f"running {cfg.label()}  (batch={cfg.batch_size}, nbrs={cfg.num_nbrs}, "
          f"layers={cfg.num_layers}, epochs={cfg.epochs})")
    exp = Experiment(cfg)
    # The transfer line counts the run only, as benchmarks/helpers.py
    # does: set-up copies (``model.to("cuda")``) are not part of it.
    runtime.transfer_stats.reset()
    try:
        if args.resume or args.checkpoint_every is not None:
            result = exp.run_resilient_training(
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every or 50,
                resume=args.resume,
            )
        else:
            result = exp.run_training()
        for e in result.epochs:
            print(f"  epoch {e.epoch}: train {e.train_seconds:7.2f}s  "
                  f"loss {e.train_loss:.4f}  val AP {e.eval_ap:.4f}")
        print(f"best val AP: {result.best_ap:.4f}")
        if hasattr(result, "events"):
            print(f"resilience: {result.checkpoints} checkpoints, "
                  f"{result.retries} retries, {result.rollbacks} rollbacks")
        if args.inference:
            seconds, ap = exp.run_test_inference()
            print(f"test inference: {seconds:.2f}s  AP {ap:.4f}")
        moved = runtime.transfer_stats
        print(f"transfers (simulated clock): count={moved.count} "
              f"MB={moved.bytes / 1e6:.1f} "
              f"pinned={moved.pinned_bytes / max(moved.bytes, 1):.0%} "
              f"seconds={moved.simulated_seconds:.2f}")
    finally:
        exp.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
