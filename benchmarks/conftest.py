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
                 filename: str = None, clock: Optional[str] = None) -> str:
    """Register a finished table for terminal-summary printing + disk;
    with *clock*, a :func:`provenance` line follows the rows."""
    text = format_table(title, headers, rows)
    if clock is not None:
        text += "\n" + provenance(clock)
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
