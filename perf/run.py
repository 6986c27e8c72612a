"""The repo's wall-clock benchmark: one command, six workloads.

    python3 perf/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perf/run.py [--seed S] [--seconds T] [--trace 0|1] --out FILE   # every workload
    python3 perf/run.py --compare A.json B.json

With ``--workload`` it measures that workload in this process, checks its
outputs, prints every metric by name (unit, direction, clock, sample count,
regression bound) and ends standard output with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (end-to-end numbers always come from untraced rounds).  Without
``--workload`` it runs every workload, each in a process of its own, one
after the other, and writes the full records to ``--out``.  Any failed
output check exits non-zero without a result line.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# BLAS threads would fight the second core's other tenants; set before numpy loads.
os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
if __name__ == "__main__":
    # Replace the script directory on the path: perf/ holds a trace.py that
    # must not shadow the standard library's for anything else that imports it.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

from perf import measure  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _bounds(contract: dict) -> dict:
    return {m["name"]: m["bound"] for m in contract["end_to_end"]}


# ---- one workload, this process ------------------------------------------------------


def _print_table(record: dict, section: str, bounds: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  rounds={record['rounds']}  "
          f"windows/round={record['windows_per_round']}  steps/round={record['steps_per_round']}  "
          f"host_slowdown={record['host_slowdown']:.3f}")
    print(f"# sizes: {json.dumps(record['sizes'])}")
    print(f"{'metric':<44}{'value':>16}  {'unit':<6}{'better':<8}{'clock':<9}"
          f"{'n':>6}  bound")
    for name, row in record[section].items():
        bound = f"{bounds[name]:.0%}" if name in bounds else "-"
        print(f"{name:<44}{row['value']:>16.6g}  {row['unit']:<6}{row.get('better', '-'):<8}"
              f"{row['clock']:<9}{row['samples']:>6}  {bound}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    kept = measure.keep_freed_memory_mapped()
    try:
        record = measure.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                      str(ROOT))
    except measure.CheckFailed as err:
        print(f"perf/run.py: output check failed: {err}", file=sys.stderr)
        return 1
    record["allocator_kept_mapped"] = kept
    section = "per_layer" if args.trace else "end_to_end"
    _print_table(record, section, _bounds(load_contract()))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in record[section].items()},
    }))
    return 0


# ---- every workload, one process each ------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def run_all(args) -> int:
    contract = load_contract()
    records = {}
    tmp = ROOT / "perf" / "out"
    tmp.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        merged = {}
        for trace in ([0, 1] if args.trace else [0]):
            part = tmp / f"record-{name}-{trace}-{os.getpid()}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            print(f"## {' '.join(cmd[2:-2])}", flush=True)
            done = subprocess.run(cmd, timeout=900)
            if done.returncode != 0:
                return done.returncode
            with open(part) as fh:
                record = json.load(fh)
            part.unlink()
            if trace:
                merged["per_layer"] = record["per_layer"]
                merged["trace_sum_gap"] = record["trace_sum_gap"]
            else:
                merged.update(record)
        records[name] = merged
    result = {
        "git_sha": _git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas(), "seed": args.seed,
        "run_seconds": args.seconds,
        "bounds": _bounds(contract), "workloads": records,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


# ---- --compare -----------------------------------------------------------------------


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def _spread(rounds: list) -> float:
    """Quartile distance of per-round values as a share of their median."""
    if len(rounds) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(rounds, n=4)
    return (q3 - q1) / statistics.median(rounds)


def compare(path_a: str, path_b: str) -> int:
    """Apply each metric's bound per workload: ok / regressed / unresolved.

    *unresolved*: the rounds inside either file spread wider than the bound,
    so the two medians cannot be told apart at that resolution — unless
    every round of B reads better than every round of A.
    """
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    bounds = _bounds(load_contract())
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<18}{'metric':<18}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}"
          f"{'spread':>8}  verdict")
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            print(f"{name:<18}missing from {path_b}")
            verdicts["regressed"] += 1
            continue
        for metric, row_a in rec_a["end_to_end"].items():
            row_b = rec_b["end_to_end"][metric]
            bound, better = bounds[metric], row_a["better"]
            worse = _worse_by(row_a["value"], row_b["value"], better)
            spread = max(_spread(row_a["rounds"]), _spread(row_b["rounds"]))
            ra, rb = row_a["rounds"], row_b["rounds"]
            b_wins = bool(ra and rb) and (
                max(rb) < min(ra) if better == "lower" else min(rb) > max(ra))
            if worse > bound:
                verdict = "regressed"
            elif spread > bound and not b_wins:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{name:<18}{metric:<18}{row_a['value']:>14.6g}{row_b['value']:>14.6g}"
                  f"{worse:>+10.1%}{bound:>8.0%}{spread:>8.1%}  {verdict}")
        for metric, row_a in rec_a.get("per_layer", {}).items():
            row_b = rec_b.get("per_layer", {}).get(metric)
            if row_b and measure.is_deterministic(metric) and row_a["value"] != row_b["value"]:
                print(f"{name:<18}{metric}: count differs: {row_a['value']} vs {row_b['value']}")
                verdicts["regressed"] += 1
    print(", ".join(f"{n} {v}" for v, n in verdicts.items()))
    return 1 if verdicts["regressed"] else 0


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record(s) as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    if not args.out:
        parser.error("running every workload needs --out FILE")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
