"""State-invariant validation for the training runtime.

A fault-tolerant trainer must never checkpoint (or keep training on)
corrupted state.  :func:`validate_state` sweeps every stateful component
hanging off a :class:`~repro.core.graph.TGraph` /
:class:`~repro.core.context.TContext` pair and returns a list of
human-readable violations (empty = healthy):

* **Memory** — finite vectors, finite non-negative last-update times that
  never exceed the stream horizon (times are monotone under the update
  protocol, so the horizon bound is the checkable invariant).
* **Mailbox** — finite mail/delivery times, ring cursors in ``[0, slots)``.
* **Temporal CSR** — monotone ``indptr`` matching the buffer lengths,
  node/edge ids in range, per-node edge times ascending.
* **Kernel cache tables** — each per-layer
  :class:`~repro.core.kernels.cache.NodeTimeCache` self-checks (finite
  rows, cursor in range, hash-table/slot agreement).

The trainer runs this at checkpoint boundaries (a violation vetoes the
checkpoint and triggers rollback).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


__all__ = ["validate_state"]


def _check_csr(g, out: List[str]) -> None:
    csr = g.csr()
    indptr = csr.indptr
    if len(indptr) != g.num_nodes + 1:
        out.append(f"csr: indptr length {len(indptr)} != num_nodes+1 {g.num_nodes + 1}")
        return
    if len(indptr) and indptr[0] != 0:
        out.append("csr: indptr does not start at 0")
    if np.any(np.diff(indptr) < 0):
        out.append("csr: indptr is not non-decreasing")
        return
    total = int(indptr[-1]) if len(indptr) else 0
    if total != len(csr.indices) or total != len(csr.eids) or total != len(csr.etimes):
        out.append(
            f"csr: indptr total {total} disagrees with buffer lengths "
            f"({len(csr.indices)}, {len(csr.eids)}, {len(csr.etimes)})"
        )
        return
    if total:
        if csr.indices.min() < 0 or csr.indices.max() >= g.num_nodes:
            out.append("csr: neighbor node id out of range")
        if csr.eids.min() < 0 or csr.eids.max() >= g.num_edges:
            out.append("csr: edge id out of range")
        if not np.isfinite(csr.etimes).all():
            out.append("csr: non-finite edge times")
        elif total > 1:
            # Ascending edge times within each node segment: ignore the
            # diffs that straddle a segment boundary.
            diffs = np.diff(csr.etimes)
            boundary = indptr[1:-1] - 1
            keep = np.ones(total - 1, dtype=bool)
            keep[boundary[(boundary >= 0) & (boundary < total - 1)]] = False
            if np.any(diffs[keep] < 0):
                out.append("csr: per-node edge times are not ascending")


def _check_caches(ctx, out: List[str]) -> None:
    for layer, ring in ctx.embed_caches.items():
        out.extend(f"cache[embed:{layer}]: {v}" for v in ring.validate())


def validate_state(g, ctx: Optional[object] = None) -> List[str]:
    """Check all runtime state invariants; return violations (empty = ok).

    Args:
        g: the :class:`~repro.core.graph.TGraph` whose attached state
            (memory, mailbox, temporal CSR) is validated.
        ctx: optional :class:`~repro.core.context.TContext`; when given,
            its kernel cache tables are validated too.  Defaults to
            ``g.ctx`` when the graph carries a context back-reference.
    """
    out: List[str] = []
    max_time = float(g.max_time) if g.num_edges else None
    if g.mem is not None:
        out.extend(f"memory: {v}" for v in g.mem.validate(max_time=max_time))
    if g.mailbox is not None:
        out.extend(f"mailbox: {v}" for v in g.mailbox.validate())
    _check_csr(g, out)
    if ctx is None:
        ctx = getattr(g, "ctx", None)
    if ctx is not None:
        _check_caches(ctx, out)
    return out
