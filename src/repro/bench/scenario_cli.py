"""The ``scenarios`` CLI subcommand: accuracy under streaming drift.

Runs one or more scenario streams (:mod:`repro.scenarios`) through the
frozen / continual / oracle closed loop and prints — optionally writes —
an accuracy-under-drift table: overall AP, final-phase AP, the worst
windowed AP, and the continual learner's swap count per configuration.
CI drives it as ``scenarios --matrix``.

Examples::

    python -m repro.bench scenarios --list
    python -m repro.bench scenarios --scenario distribution_drift \
        --knob mode=abrupt --noise-frac 0.45
    python -m repro.bench scenarios --matrix --events 1200 --output drift.txt
    python -m repro.bench scenarios --scenario node_churn \
        --staleness 0 --staleness 1000 --staleness inf
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["build_scenarios_parser", "scenarios_main"]

MODES = ("frozen", "continual", "oracle")


def build_scenarios_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench scenarios",
        description="Score streaming scenarios under frozen vs continual "
                    "(train-on-serve-log) models.",
    )
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="scenario to run (repeatable; default: "
                             "distribution_drift)")
    parser.add_argument("--matrix", action="store_true",
                        help="run every registered scenario (ignores "
                             "--scenario)")
    parser.add_argument("--mode", action="append", default=None,
                        choices=MODES,
                        help="closed-loop mode (repeatable; default: "
                             "frozen + continual)")
    parser.add_argument("--staleness", action="append", default=None,
                        metavar="BUDGET",
                        help="staleness budget in event-time units, or "
                             "'inf' (repeatable: sweeps the continual "
                             "mode; default 0)")
    parser.add_argument("--events", type=int, default=2400)
    parser.add_argument("--num-nodes", type=int, default=160)
    parser.add_argument("--noise-frac", type=float, default=0.45,
                        help="label-0 background noise fraction (the "
                             "negative class AP is scored against)")
    parser.add_argument("--knob", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="generator-specific knob (repeatable), e.g. "
                             "--knob mode=gradual --knob drift_start=0.4")
    parser.add_argument("--seed", type=int, default=11,
                        help="stream seed (generator determinism)")
    parser.add_argument("--loop-seed", type=int, default=3,
                        help="model/serving seed for the closed loop")
    parser.add_argument("--warmup-frac", type=float, default=0.25)
    parser.add_argument("--request-size", type=int, default=50)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--num-windows", type=int, default=10)
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="also write the table to this file (the CI "
                             "artifact)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="print the generator registry and exit")
    return parser


def _parse_knobs(pairs: Sequence[str]) -> dict:
    knobs = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--knob expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            knobs[key] = int(value)
        except ValueError:
            try:
                knobs[key] = float(value)
            except ValueError:
                knobs[key] = value
    return knobs


def _parse_budgets(raw: Optional[Sequence[str]]) -> List[float]:
    if not raw:
        return [0.0]
    return [float(b) for b in raw]  # float('inf') parses 'inf'


def _fmt_table(title: str, headers: Sequence[str],
               rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths))
                 for row in cells)
    return "\n".join(lines)


def _final_phase_ap(summary: dict) -> float:
    phases = summary["phases"]
    return phases[max(phases)]


def scenarios_main(argv: Optional[List[str]] = None) -> int:
    from ..scenarios import available_scenarios, make_stream, run_closed_loop

    args = build_scenarios_parser().parse_args(argv)
    catalog = available_scenarios()
    if args.list_scenarios:
        width = max(len(n) for n in catalog)
        for name, desc in catalog.items():
            print(f"{name:{width}s}  {desc}")
        return 0

    names = sorted(catalog) if args.matrix else (args.scenario
                                                 or ["distribution_drift"])
    for name in names:
        if name not in catalog:
            raise SystemExit(
                f"unknown scenario {name!r}; available: {sorted(catalog)}"
            )
    modes = args.mode or ["frozen", "continual"]
    budgets = _parse_budgets(args.staleness)

    rows = []
    for name in names:
        stream = make_stream(
            name,
            num_events=args.events,
            num_nodes=args.num_nodes,
            noise_frac=args.noise_frac,
            seed=args.seed,
            knobs=_parse_knobs(args.knob),
        )
        for mode in modes:
            # only the continual mode reacts to the budget; run the
            # others once
            for budget in (budgets if mode == "continual" else [0.0]):
                run = run_closed_loop(
                    stream,
                    mode=mode,
                    staleness_budget=budget,
                    warmup_frac=args.warmup_frac,
                    dim=args.dim,
                    lr=args.lr,
                    request_size=args.request_size,
                    seed=args.loop_seed,
                    num_windows=args.num_windows,
                    workdir=tempfile.mkdtemp(prefix=f"scenario-{name}-{mode}-"),
                )
                summary = run["summary"]
                learner = run["learner"]
                rows.append([
                    name,
                    mode,
                    ("-" if mode != "continual"
                     else ("inf" if np.isinf(budget) else f"{budget:g}")),
                    f"{summary['overall_ap']:.4f}",
                    f"{_final_phase_ap(summary):.4f}",
                    f"{summary['min_window_ap']:.4f}",
                    learner["swaps"] if learner else "-",
                ])
                print(f"  {name}/{mode}"
                      + (f" budget={budget:g}" if mode == "continual" else "")
                      + f": overall AP {summary['overall_ap']:.4f}, "
                        f"final phase {_final_phase_ap(summary):.4f}")

    title = (f"accuracy under drift ({args.events} events, "
             f"noise {args.noise_frac:g}, stream seed {args.seed}, "
             f"loop seed {args.loop_seed})")
    table = _fmt_table(
        title,
        ["scenario", "mode", "budget", "overall AP", "final-phase AP",
         "min window AP", "swaps"],
        rows,
    )
    print()
    print(table)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table + "\n")
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(scenarios_main())
