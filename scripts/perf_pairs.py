#!/usr/bin/env python
"""Alternating parent / change runs of one benchmark workload, with a verdict.

    python scripts/perf_pairs.py --parent REV --workload W --pairs N [--seed S]

Extracts the committed tree of ``REV`` (``git archive``: nothing is left
behind under ``.git``) and the working tree's tracked and
untracked-but-not-ignored files (``git ls-files -co --exclude-standard``)
into two fresh directories side by side, then runs the command
``BENCHMARK.json`` declares — ``python3 perf/run.py --workload W --seed S
--trace 0`` — once in each copy per pair, flipping which side goes first
every pair.  Both sides run from a copy made the same way a moment apart,
so neither has bytecode caches, build leftovers or a longer path the other
lacks: a location effect cannot read as an effect of the change.  Nothing under ``perf/`` is
imported: both sides are measured by their own copy of the benchmark, read
through the JSON line it ends its output with.

Per end-to-end metric it prints both medians and quartiles, how many pairs
the change won, and the verdict of the ``choosing-metrics`` guide (section 8):

* ``gain`` — the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the distance
  between the parent's own quartiles;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's quartile distance is wider than that
  bound, so the medians cannot be told apart at its resolution (unless
  every run of the change reads better than every run of the parent);
* ``same`` — otherwise: no worse than the bound allows, no gain shown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, into: Path) -> None:
    """Unpack the committed files of *rev* into *into*."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def copy_worktree(into: Path) -> None:
    """Copy the working tree's tracked and untracked-but-not-ignored files
    (a tracked file deleted in the working tree is left out) into *into*."""
    listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                            check=True, capture_output=True).stdout.decode().split("\0")
    files = "\0".join(f for f in listed if f and (ROOT / f).is_file())
    archive = subprocess.run(["tar", "-c", "--null", "-T", "-"], cwd=ROOT, check=True,
                             input=files.encode(), capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def run_once(tree: Path, command: list, workload: str, seed: int) -> dict:
    """One benchmark run in *tree*; returns ``{metric: value}`` from its result line."""
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"perf_pairs: benchmark failed in {tree}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"perf_pairs: benchmark reported incorrect outputs in {tree}")
    return {name: row["value"] for name, row in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """``(wins, ties, verdict)`` for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    worse_by = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if wins >= 0.9 * len(parent) and sign * (cmed - pmed) > pq3 - pq1:
        return wins, ties, "gain"
    if worse_by > bound:
        return wins, ties, "regressed"
    if spread > bound and not all_better:
        return wins, ties, "unresolved"
    return wins, ties, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload name of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    metrics = contract["end_to_end"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        extract(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for pair in range(args.pairs):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                runs[side].append(run_once(trees[side], contract["command"], args.workload,
                                           args.seed))
            row = "  ".join(f"{m['name']} {runs['parent'][-1][m['name']]:.6g}/"
                            f"{runs['change'][-1][m['name']]:.6g}" for m in metrics)
            print(f"pair {pair + 1:>2}/{args.pairs} (parent/change)  {row}", flush=True)

    print(f"\n{args.workload}  seed={args.seed}  parent={args.parent}  pairs={args.pairs}")
    print(f"{'metric':<14}{'parent q1/median/q3':>34}{'change q1/median/q3':>34}"
          f"{'ratio':>8}{'wins':>18}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent, change = ([run[name] for run in runs[side]] for side in ("parent", "change"))
        wins, ties, outcome = verdict(parent, change, metric["better"], metric["bound"])
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        ratio = f"{cmed / pmed:.2f}x" if pmed else "-"
        won = f"{wins}/{args.pairs}" + (f" ({ties} tied)" if ties else "")
        print(f"{name:<14}{f'{pq1:.6g} / {pmed:.6g} / {pq3:.6g}':>34}"
              f"{f'{cq1:.6g} / {cmed:.6g} / {cq3:.6g}':>34}{ratio:>8}{won:>18}  {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
