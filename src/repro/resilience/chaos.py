"""Applying member-level faults to replica groups (numpy/os only).

:mod:`~repro.resilience.faults` *decides* which fault fires where; these
functions *apply* the decisions that act on cluster members
(``shard.crash``, ``shard.stall``, ``mem.flip``), so the production
coordinator carries no fault-application code — its
``_before_request`` is the one call site of :func:`inject_member_faults`,
and calls it only while a fault injector is installed.
Members are duck-typed; nothing is imported from ``repro.cluster``.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

import numpy as np

from . import hooks

__all__ = ["inject_member_faults", "apply_bitflip"]

#: bytes of WAL segment header a ``wal`` flip never touches.
_WAL_HEADER = 16

#: a ``shard.stall`` multiplies the member's RPC service time by this factor
STALL_FACTOR = 8.0
#: for this many simulated seconds.
STALL_WINDOW = 2.0e-2


def inject_member_faults(groups: Sequence, now: float, counters: Dict[str, float]) -> None:
    """Consult the member-level fault sites once; count what fired.

    Every group member is its own kill/stall/flip target: the decision
    extra is ``shard + num_shards * member``, so member 0 of shard i
    keeps the factor-1 extra ``i`` (schedules written for the
    single-replica cluster target the same primary), and a schedule
    entry ``(epoch, batch, shard + num_shards * m)`` hits exactly
    follower ``m``.

    What this call applied is counted into *counters* (the deployment's
    counter table) as ``cluster:injected_crashes`` / ``_stalls`` /
    ``_flips``.
    """
    n = len(groups)
    for i, group in enumerate(groups):
        for m, rep in enumerate(group.members):
            if rep.alive and hooks.poke("shard.crash", shard=i, extra=i + n * m):
                rep.crash()
                counters["cluster:injected_crashes"] += 1
    for i, group in enumerate(groups):
        for m, rep in enumerate(group.members):
            if not rep.alive or rep.recovering:
                continue
            if hooks.poke("shard.stall", shard=i, extra=i + n * m):
                rep.stall(now, STALL_FACTOR, STALL_WINDOW)
                counters["cluster:injected_stalls"] += 1
    for i, group in enumerate(groups):
        for m, rep in enumerate(group.members):
            if not rep.alive or rep.recovering:
                continue
            directive = hooks.poke("mem.flip", shard=i, extra=i + n * m)
            if directive is not None and directive[0] == "flip":
                counters["cluster:injected_flips"] += apply_bitflip(rep, directive)


def apply_bitflip(rep, directive) -> bool:
    """Flip one live-state bit of member *rep*, bypassing the write path.

    *directive* is ``("flip", tier, byte, bit)``.  The byte index is
    drawn from a huge nominal space and reduced modulo the targeted
    tier's actual byte size, so one deterministic decision lands
    somewhere valid in any state shape.  Returns False when the tier
    holds no bytes to corrupt (e.g. a ``wal`` flip against a log whose
    segments are all empty).
    """
    _, tier, byte, bit = directive
    mask = np.uint8(1 << bit)
    if tier == "wal":
        if rep.store is None:
            return False
        paths = [
            p for p in rep.store.wal.segment_paths()
            if os.path.getsize(p) > _WAL_HEADER
        ]
        if not paths:
            return False
        path = paths[byte % len(paths)]
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(_WAL_HEADER + byte % (size - _WAL_HEADER))
            old = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([old[0] ^ int(mask)]))
        return True
    part = rep.mailbox if tier == "mailbox" else rep.memory
    if part is None:
        return False
    # Flip targets are the floating-point payload tables.  The mailbox's
    # integer ring cursor is digest-covered but not a flip target: a
    # corrupted cursor steers *later* writes to the wrong slot, and once
    # the write path re-records those rows no digest can tell the state
    # from a clean one — an unrepairable-by-design hole rather than the
    # detect-and-repair cycle under test.
    arrays = [t for t in part.tables() if t.dtype.kind == "f"]
    off = byte % sum(a.nbytes for a in arrays)
    for arr in arrays:
        if off < arr.nbytes:
            arr.view(np.uint8).reshape(-1)[off] ^= mask
            return True
        off -= arr.nbytes
    return False
