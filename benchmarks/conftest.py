"""Benchmark-suite plumbing: paper-style table reporting.

Each benchmark regenerates one table or figure from the paper's evaluation
(§5).  Cells are measured by the harness in ``helpers.py``; the assembled
rows are registered here and printed in the terminal summary (so they are
visible even though pytest captures stdout), as well as written under
``benchmarks/results/``.
"""

from __future__ import annotations

import datetime
import os
import subprocess
from typing import List, Optional, Sequence

_TABLES: List[str] = []

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: what scores a request served through ``ServeEngine`` without a swapped model
SURROGATE_MODEL = "model: mean-aggregate surrogate (not a TGNN forward; ROADMAP item 1)"
#: what scores a scenario's requests: the table its learner installs
SWAPPED_MODEL = "model: embedding-table link model, served via swap_model"
#: the provenance line of a table no clock reads: its bytes are gated in CI,
#: so it carries no checkout or date
NO_CLOCK = "clock: none (deterministic byte tally)"


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def provenance(clock: str) -> str:
    """The checkout (``git describe --dirty``), today's date and the clock
    a table's seconds are read on, as one line."""
    sha = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=os.path.dirname(__file__), capture_output=True,
                         text=True).stdout.strip() or "unknown"
    return f"measured at {sha} on {datetime.date.today()}; clock: {clock}"


def report_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
                 filename: str = None, *, clock: Optional[str],
                 footer: Sequence[str] = ()) -> str:
    """Register a finished table for terminal-summary printing + disk.

    Every table says where it was measured: a :func:`provenance` line on
    *clock* follows the rows (``wall``, ``wall + simulated transfer``,
    ``simulated``, or ``none (...)`` for a table no clock reads), then the
    *footer* lines (a serving table's last line names its model).  A
    table whose bytes are gated passes ``clock=None`` and :data:`NO_CLOCK`
    in its footer instead.
    """
    lines = [format_table(title, headers, rows)]
    if clock is not None:
        lines.append(provenance(clock))
    text = "\n".join([*lines, *footer])
    _TABLES.append(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if filename is None:
        filename = title.split(":")[0].strip().lower().replace(" ", "_") + ".txt"
    with open(os.path.join(RESULTS_DIR, filename), "w") as fh:
        fh.write(text + "\n")
    return text


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "reproduced tables & figures")
    for text in _TABLES:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    _TABLES.clear()
