"""Anti-entropy scrubbing and quorum repair over replica groups.

The :class:`Scrubber` turns the cluster's bit-identity guarantee into a
continuously enforced invariant.  On the simulated clock it periodically
walks every :class:`~repro.cluster.replication.ReplicaGroup` and, per
serving member, runs the corruption lifecycle:

1. **detect** — recompute the live chunk digests of each state table and
   compare them (root first) against the member's *maintained* digests,
   which only the WAL-then-apply write path refreshes.  A mismatch is
   proof of out-of-band mutation: a flipped bit, rotted RAM.
2. **localize** — merkle descent narrows the divergence to chunks.
3. **arbitrate** — pick a trustworthy source for the damaged rows:
   a digest **quorum** of members whose maintained digests agree (factor
   >= 3 requires a majority), falling back to **primary-authority** at
   factor < 3, falling back to the member's own **durable evidence**
   (snapshot + committed WAL suffix — a read-only shadow replay) when no
   self-consistent peer holds the same logical state.
4. **repair** — re-ship the arbitrated rows over the damaged chunks
   (peer row copy or WAL-suffix resync), in place.
5. **verify** — recompute the repaired chunks; anything still divergent
   raises :class:`~repro.integrity.errors.IntegrityUnrepairable` instead
   of silently serving bad rows.

The same pass self-checks each member's WAL segments (CRC/frame parse),
re-anchoring a damaged log on digest-verified live state, and
cross-checks maintained digests *between* settled members (a logically
diverged member is repaired from the quorum/primary).

Fault sites: ``scrub.skip`` lets chaos runs suppress whole cycles (the
window a flip would normally hide in); while a cycle has been skipped,
scatter-gather reads go through :meth:`Scrubber.guard_read`, which
verifies just the touched chunks and read-repairs before any row is
served.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.stats import declare
from ..resilience.hooks import poke as _poke
from ..spans import span
from .digest import ChunkedDigest, merkle_diff
from .errors import IntegrityUnrepairable

__all__ = ["Scrubber"]

#: the scrubber's counters, ``integrity:<name>`` in the counter table.
SCRUB_COUNTERS = ("cycles", "skipped_cycles", "chunks_scrubbed", "divergences",
                  "rows_repaired", "peer_repairs", "quorum_repairs",
                  "authority_repairs", "wal_resyncs", "wal_segment_repairs",
                  "wal_segments_dropped", "read_repairs")


class Scrubber:
    """Background anti-entropy scrubber over a cluster's replica groups.

    Args:
        groups: the cluster's replica groups (scrubbed in shard order).
        clock: simulated clock (``clock.now()``); cycles are due every
            *interval* simulated seconds.
        interval: scrub period in simulated seconds; ``None`` or ``<= 0``
            disables periodic cycles (explicit :meth:`scrub_now` still
            works).
        counters: the counter table to count ``integrity:*`` into (a
            private one when None).
    """

    def __init__(
        self,
        groups: Sequence,
        clock,
        interval: Optional[float] = 0.25,
        counters: Optional[Dict[str, float]] = None,
    ):
        self.groups = groups
        self.clock = clock
        self.interval = None if interval is None or interval <= 0 else float(interval)
        self.counters = declare(counters, *(f"integrity:{k}" for k in SCRUB_COUNTERS))
        #: True after a skipped cycle: reads verify their touched chunks
        #: (read-repair) until the next completed cycle clears it.
        self.suspect_window = False
        self._next_due = clock.now() + self.interval if self.interval else np.inf

    # ---- scheduling ----------------------------------------------------------------

    def maybe_scrub(self) -> bool:
        """Run one cycle if it is due on the simulated clock.

        The ``scrub.skip`` fault site can suppress the due cycle — the
        counters record the miss and the suspect window opens so reads
        self-protect until a later cycle completes.
        """
        if self.interval is None or self.clock.now() < self._next_due:
            return False
        self._next_due = self.clock.now() + self.interval
        c = self.counters
        cycle = int(c["integrity:cycles"] + c["integrity:skipped_cycles"])
        if _poke("scrub.skip", cycle=cycle) is not None:
            c["integrity:skipped_cycles"] += 1
            self.suspect_window = True
            return False
        self.scrub_now()
        return True

    def scrub_now(self) -> None:
        """One full scrub cycle over every group.

        What it finds and fixes is counted in :attr:`counters`; its wall
        time is a ``scrub`` :mod:`repro.spans` span, the overhead the
        benchmark gates on.
        """
        with span("scrub"):
            for gi, group in enumerate(self.groups):
                self._scrub_group(gi, group)
        self.suspect_window = False
        self.counters["integrity:cycles"] += 1

    # ---- group scrubbing -----------------------------------------------------------

    def _scrub_group(self, gi: int, group) -> None:
        for m, rep in enumerate(group.members):
            if not group.serving(m) or rep.digests is None:
                continue
            for comp, cd in rep.digests.components():
                live = cd.compute()
                self.counters["integrity:chunks_scrubbed"] += len(live)
                bad = cd.diverged(live)
                if not bad:
                    continue
                self.counters["integrity:divergences"] += len(bad)
                self._repair_chunks(gi, group, m, rep, comp, cd, bad)
            damaged = rep.verify_wal()
            if damaged:
                self.counters["integrity:divergences"] += len(damaged)
                dropped = rep.reanchor_wal()
                self.counters["integrity:wal_segment_repairs"] += 1
                self.counters["integrity:wal_segments_dropped"] += dropped
                if rep.verify_wal():
                    raise IntegrityUnrepairable(
                        f"shard {gi} member {m}: WAL still damaged after "
                        "re-anchoring on verified live state",
                        component="wal", shard=gi, member=m,
                    )
        self._cross_check(gi, group)

    def _component(self, rep, comp: str) -> Optional[ChunkedDigest]:
        if rep.digests is None:
            return None
        return dict(rep.digests.components()).get(comp)

    def _repair_chunks(
        self, gi: int, group, m: int, rep, comp: str, cd: ChunkedDigest,
        chunks: List[int],
    ) -> None:
        """Arbitrate + repair + verify self-inconsistent *chunks* of one member.

        The member's maintained digests are the record of what it applied
        (they match its peers'), so arbitration looks for a donor that
        (a) holds the same logical state on those chunks and (b) passes
        its own live-vs-maintained check there.  Factor >= 3 additionally
        requires the logical state to be the majority one (digest
        quorum); factor 2 is the primary-authority regime — in practice
        the surviving peer, whichever side of the primacy it is on.  With
        no such peer the member's own durable evidence repairs it
        (WAL-suffix resync); evidence that is missing or short raises.
        """
        rows = cd.rows_in(chunks)
        donor = None
        matching = 1  # the member's own maintained digests vote for its state
        for d in range(len(group.members)):
            if d == m:
                continue
            dcd = self._component(group.members[d], comp)
            if dcd is None or dcd.num_chunks != cd.num_chunks:
                continue
            if any(dcd.digests[int(c)] != cd.digests[int(c)] for c in chunks):
                continue  # holds a different logical state: cannot donate
            matching += 1
            if donor is None and group.serving(d) and not dcd.stale(chunks):
                donor = d
        factor = len(group.members)
        quorum_ok = factor < 3 or matching > factor // 2
        if donor is not None and quorum_ok:
            drep = group.members[donor]
            rep.overwrite_rows(comp, rows, drep.read_rows(comp, rows))
            self.counters["integrity:peer_repairs"] += 1
            if factor >= 3:
                self.counters["integrity:quorum_repairs"] += 1
            elif donor == group.primary_idx or m == group.primary_idx:
                self.counters["integrity:authority_repairs"] += 1
        else:
            self._wal_resync(gi, m, rep, comp, rows)
        self.counters["integrity:rows_repaired"] += len(rows)
        self._verify_chunks(gi, m, rep, comp, cd, chunks)

    def _wal_resync(self, gi: int, m: int, rep, comp: str,
                    rows: np.ndarray) -> None:
        """Repair rows from the member's own snapshot + WAL suffix."""
        # One retry: a transient injected read flip perturbs a single
        # (path, position) once; the second replay reads clean bytes.
        shadow = rep.shadow_state() or rep.shadow_state()
        if shadow is None:
            raise IntegrityUnrepairable(
                f"shard {gi} member {m}: {comp} corrupt with no "
                "arbitrable peer and durable evidence missing, damaged, "
                "or short of the applied sequence",
                component=comp, shard=gi, member=m, rows=len(rows),
            )
        smem, smail, _ = shadow
        source = smem if comp == "memory" else smail
        rep.overwrite_rows(comp, rows, tuple(t[rows] for t in source.tables()))
        self.counters["integrity:wal_resyncs"] += 1

    def _verify_chunks(self, gi: int, m: int, rep, comp: str,
                       cd: ChunkedDigest, chunks: List[int]) -> None:
        still = cd.stale(chunks)
        if still:
            raise IntegrityUnrepairable(
                f"shard {gi} member {m}: {comp} chunks {still} still "
                "divergent after repair",
                component=comp, shard=gi, member=m, chunks=still,
            )

    def _cross_check(self, gi: int, group) -> None:
        """Compare maintained digests *between* settled members.

        The self-checks above catch bit rot; this net catches logical
        divergence — a member whose maintained digests honestly describe
        its tables, but whose tables are not what the group committed.
        Arbitration: majority maintained digest at factor >= 3 (quorum),
        the primary's at factor < 3 (primary-authority).
        """
        settled = [
            m for m in range(len(group.members))
            if group.member_settled(m) and group.members[m].digests is not None
        ]
        if len(settled) < 2:
            return
        for comp in ("memory", "mailbox"):
            cds = {
                m: self._component(group.members[m], comp) for m in settled
            }
            cds = {m: cd for m, cd in cds.items() if cd is not None}
            if len(cds) < 2:
                continue
            roots = {m: cd.root() for m, cd in cds.items()}
            if len(set(roots.values())) <= 1:
                continue
            winner = self._arbitrate_winner(gi, group, comp, cds, roots)
            wcd = cds[winner]
            wrep = group.members[winner]
            for m, cd in cds.items():
                if m == winner or roots[m] == roots[winner]:
                    continue
                chunks = merkle_diff(cd.digests, wcd.digests)
                self.counters["integrity:divergences"] += len(chunks)
                rows = wcd.rows_in(chunks)
                rep = group.members[m]
                rep.overwrite_rows(
                    comp, rows, wrep.read_rows(comp, rows), record=True
                )
                self.counters["integrity:rows_repaired"] += len(rows)
                self._verify_chunks(gi, m, rep, comp, cd, chunks)

    def _arbitrate_winner(self, gi: int, group, comp: str,
                          cds: Dict[int, ChunkedDigest],
                          roots: Dict[int, str]) -> int:
        factor = len(group.members)
        tally = Counter(roots.values())
        top_root, votes = tally.most_common(1)[0]
        if factor >= 3 and votes > len(roots) // 2:
            self.counters["integrity:quorum_repairs"] += 1
            candidates = [m for m in sorted(roots) if roots[m] == top_root]
        elif group.primary_idx in roots:
            self.counters["integrity:authority_repairs"] += 1
            candidates = [group.primary_idx]
        else:
            raise IntegrityUnrepairable(
                f"shard {gi}: settled members disagree on {comp} with no "
                "digest quorum and no settled primary to arbitrate",
                component=comp, shard=gi,
            )
        for m in candidates:
            if not cds[m].diverged():
                return m
        raise IntegrityUnrepairable(
            f"shard {gi}: every arbitration candidate for {comp} fails "
            "its own live-digest check",
            component=comp, shard=gi,
        )

    # ---- read repair ---------------------------------------------------------------

    def guard_read(self, gi: int, group, member_idx: int,
                   nodes: np.ndarray) -> None:
        """Verify + repair the chunks a scatter-gather read touches.

        Only active during a suspect window (a skipped scrub cycle): the
        periodic detector missed its slot, so reads take over for exactly
        the rows about to be served.  Must run *before* the gather.
        """
        if not self.suspect_window:
            return
        rep = group.members[member_idx]
        if rep.digests is None or not group.serving(member_idx):
            return
        local = rep._local[np.asarray(nodes, dtype=np.int64)]
        local = local[local >= 0]
        if not len(local):
            return
        repaired = False
        for comp, cd in rep.digests.components():
            bad = cd.stale(cd.chunks_of(local))
            if bad:
                self.counters["integrity:divergences"] += len(bad)
                self._repair_chunks(gi, group, member_idx, rep, comp, cd, bad)
                repaired = True
        if repaired:
            self.counters["integrity:read_repairs"] += 1
