#!/usr/bin/env python
"""Splice the latest benchmarks/results/ tables into EXPERIMENTS.md.

EXPERIMENTS.md contains marker pairs::

    <!-- BEGIN RESULTS:fig5_train_gpu.txt -->
    ```
    ... (replaced verbatim with the file's contents) ...
    ```
    <!-- END RESULTS -->

Run after ``pytest benchmarks/ --benchmark-only`` so the document always
quotes the most recent measurement.  ``--check`` rewrites nothing: it
names every block that differs from its file and exits 1 if any does.

Every results file must say where it was measured: a provenance line
``measured at <sha> on <date>; clock: <clock>`` (or a bare ``clock: none
(...)`` for a table whose bytes are gated).  A file without one is never
spliced, and ``--check`` names every such file and exits 1.
"""

import argparse
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DOC = os.path.join(ROOT, "EXPERIMENTS.md")
RESULTS = os.path.join(ROOT, "benchmarks", "results")

PATTERN = re.compile(
    r"(<!-- BEGIN RESULTS:(?P<name>[\w.]+) -->\n```\n)(?P<body>.*?)(\n```\n<!-- END RESULTS -->)",
    re.DOTALL,
)
PROVENANCE = re.compile(r"^(measured at \S+ on \d{4}-\d{2}-\d{2}; )?clock: \S.*$", re.MULTILINE)


def has_provenance(body: str) -> bool:
    return PROVENANCE.search(body) is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any block differs from its file; write nothing")
    args = parser.parse_args(argv)
    with open(DOC) as fh:
        text = fh.read()

    missing, drifted, unproven = [], [], set()
    for name in sorted(os.listdir(RESULTS)):
        if name.endswith(".txt"):
            with open(os.path.join(RESULTS, name)) as fh:
                if not has_provenance(fh.read()):
                    unproven.add(name)

    def replace(match: re.Match) -> str:
        name = match.group("name")
        path = os.path.join(RESULTS, name)
        if not os.path.exists(path):
            missing.append(name)
            return match.group(0)
        if name in unproven:
            return match.group(0)  # refused: nothing says where it was measured
        with open(path) as fh:
            body = fh.read().rstrip()
        if body != match.group("body"):
            drifted.append(name)
        return f"{match.group(1)}{body}{match.group(4)}"

    updated, count = PATTERN.subn(replace, text)
    if args.check:
        for name in drifted:
            print(f"EXPERIMENTS.md block {name} differs from benchmarks/results/{name}")
        print(f"checked {count} result blocks: {len(drifted)} differ")
    else:
        with open(DOC, "w") as fh:
            fh.write(updated)
        print(f"updated {count - len(missing)} result blocks in EXPERIMENTS.md")
    if missing:
        print(f"missing results files (left untouched): {missing}", file=sys.stderr)
    for name in sorted(unproven):
        print(f"benchmarks/results/{name} has no provenance line "
              "('measured at <sha> on <date>; clock: ...'); not spliced", file=sys.stderr)
    return 1 if missing or unproven or (args.check and drifted) else 0


if __name__ == "__main__":
    sys.exit(main())
