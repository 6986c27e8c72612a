"""Replica groups: lease-fenced primary/follower replication per shard.

A :class:`ReplicaGroup` turns one shard into ``replication_factor``
:class:`~repro.cluster.replica.ShardReplica`s on distinct hosts — one
**primary** plus followers — so the shard's rows stay readable through
the detection→promotion window that previously zero-filled every gather
touching a dead shard.

**Synchronous log shipping.**  Every cluster-committed sub-batch is
shipped to all group members in the same commit fan-out: the primary leg
rides the ordinary :meth:`~repro.cluster.rpc.SimRpc.call` (so a
factor-1 group is byte-for-byte the PR-8 single-replica path), follower
legs ride :meth:`~repro.cluster.rpc.SimRpc.ship` through the
``repl.ship`` / ``repl.ack`` fault sites.  Each member appends the
record to its *own* WAL and applies it through the same plan
(WAL-then-apply), so follower state is bit-identical to the primary's by
construction — there is no separate "follower apply" code to diverge.
The record bytes, the apply plan and the sha256 leaves of the rows it
writes are the same on every member, so the coordinator makes them once
per commit for every shard
(:func:`~repro.cluster.replica.prepare_shards`) and ``ship`` hands each
member the group's.
The commit is **quorum-acked** when at least ``ack_quorum`` members
(primary included) acknowledged their durable append; an under-quorum
commit is never aborted — the cluster already sequenced it — but is
counted and completed by redelivery, which single-runtime equivalence
requires.

**In-order per-member delivery.**  A member that misses a ship (down,
dropped leg, RPC budget exhausted) parks the record in its private
queue; every later ship to that member drains the queue *first*, so a
member can never observe sequence ``s+1`` before ``s``.  This matters
because replicas absorb redelivery by sequence idempotence
(``seq <= last_seq`` is a no-op) — out-of-order delivery would silently
drop the skipped record forever.

**Lease-fenced promotion.**  When the primary dies, :meth:`promote`
bumps the group's lease epoch, installs the most-caught-up serving
follower (highest applied ``last_seq``; deterministic lowest-member-id
tie-break), drains its queue, and replays — as a WAL backstop — any
committed suffix from the fenced ex-primary's durable directory
(:func:`repro.durable.tail.read_batch_suffix`).  Every surviving member
observes the new epoch; a zombie ex-primary still writing under the old
epoch is rejected at the replica with
:class:`~repro.cluster.replica.StaleLeaseError` *before* its WAL
append, so a partitioned brain can never diverge a follower.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.stats import declare
from ..durable.tail import read_batch_suffix
from ..serve.events import EventBatch
from .replica import Prepared, ReplicaDown, ShardReplica
from .rpc import RpcTimeout

__all__ = ["ReplicaGroup", "GROUP_COUNTERS"]

#: a replica group's counters.
GROUP_COUNTERS = ("ships", "quorum_commits", "under_quorum", "acks_lost",
                  "deferred", "redelivered", "promotions", "catchup_replayed")


class ReplicaGroup:
    """One shard's primary + followers with quorum log shipping.

    Args:
        shard_id: the shard this group serves.
        members: the group's replicas, ``members[0]`` the initial
            primary; each must live on a distinct host (see
            :func:`~repro.cluster.partition.place_group_hosts`).
        ack_quorum: members (primary included) whose durable append must
            be acknowledged for a quorum commit; defaults to a majority
            (``factor // 2 + 1``).  Bounded to ``[1, factor]``.
        counters: the counter table to count ``group:<shard>:<name>`` into,
            one key per :data:`GROUP_COUNTERS` name (a private table when
            None).
    """

    def __init__(
        self,
        shard_id: int,
        members: List[ShardReplica],
        ack_quorum: Optional[int] = None,
        counters: Optional[Dict[str, float]] = None,
    ):
        if not members:
            raise ValueError("a replica group needs at least one member")
        hosts = [m.host for m in members]
        if len(set(hosts)) != len(hosts):
            raise ValueError(
                f"replica group {shard_id} places two members on one host "
                f"({hosts}): a single host loss would take the whole group"
            )
        self.shard_id = int(shard_id)
        self.members = list(members)
        self.primary_idx = 0
        #: lease epoch; bumped (and fenced) by every promotion.
        self.epoch = 0
        factor = len(self.members)
        quorum = factor // 2 + 1 if ack_quorum is None else int(ack_quorum)
        if not 1 <= quorum <= factor:
            raise ValueError(
                f"ack_quorum {quorum} out of range [1, {factor}]"
            )
        self.ack_quorum = quorum
        #: newest cluster commit sequence shipped through this group.
        self.committed_seq = -1
        #: per-member in-order queues of ``(seq, sub_batch)`` to redeliver.
        self._pending: List[List[Tuple[int, EventBatch]]] = [
            [] for _ in self.members
        ]
        #: counter-table key of each :data:`GROUP_COUNTERS` name.
        self.key = {name: f"group:{self.shard_id}:{name}" for name in GROUP_COUNTERS}
        self.counters = declare(counters, *self.key.values())

    # ---- membership ----------------------------------------------------------------

    @property
    def factor(self) -> int:
        return len(self.members)

    @property
    def primary(self) -> ShardReplica:
        return self.members[self.primary_idx]

    def serving(self, idx: int) -> bool:
        """Is member *idx* able to take reads/writes right now?"""
        m = self.members[idx]
        return m.alive and not m.recovering

    def serving_primary(self) -> Optional[ShardReplica]:
        return self.primary if self.serving(self.primary_idx) else None

    def any_serving(self) -> bool:
        return any(self.serving(i) for i in range(len(self.members)))

    def read_member(self) -> Optional[int]:
        """Member to gather from: the primary, else the best follower.

        Read fail-over is what replication buys on the read path: while
        *any* member serves, a gather never zero-fills.  Followers are
        ranked by applied ``last_seq`` (freshest wins; deterministic
        lowest-member-id tie-break), so bounded-lag reads lag by at most
        the records parked in that follower's queue.
        """
        if self.serving(self.primary_idx):
            return self.primary_idx
        candidates = [i for i in range(len(self.members)) if self.serving(i)]
        if not candidates:
            return None
        return max(candidates, key=lambda i: (self.members[i].last_seq, -i))

    def member_settled(self, idx: int) -> bool:
        """Is member *idx* serving, fully caught up, and queue-empty?

        The scrubber only cross-compares maintained digests between
        settled members: a member with parked redeliveries legitimately
        lags its peers, and comparing it would report false divergence.
        """
        return (
            self.serving(idx)
            and not self._pending[idx]
            and self.members[idx].last_seq == self.committed_seq
        )

    # ---- quorum log shipping -------------------------------------------------------

    def _defer(self, idx: int, seq: int, batch: EventBatch) -> None:
        self._pending[idx].append((seq, batch))
        self.counters[self.key["deferred"]] += 1

    def drain_member(self, idx: int) -> int:
        """Reliable in-order redelivery of member *idx*'s parked records.

        Mirrors the PR-8 coordinator redelivery channel: queues are
        appended in sequence order and drained oldest-first; an already
        applied sequence (delivered-but-ack-lost ship) is a replica-side
        no-op.  A member that is not serving keeps its queue untouched.
        """
        if not self.serving(idx):
            return 0
        member = self.members[idx]
        queue, self._pending[idx] = self._pending[idx], []
        for seq, sub in queue:
            member.apply(sub, seq, epoch=self.epoch)
            self.counters[self.key["redelivered"]] += 1
        return len(queue)

    def ship(self, batch: EventBatch, seq: int, rpc, now: float,
             extra: int, prepared: Optional[Prepared] = None) -> int:
        """Synchronously replicate one committed sub-batch to all members.

        *prepared* is the sub-batch's
        :func:`~repro.cluster.replica.prepare_shards` result at this
        group's epoch, made once for the whole commit; without it the
        first member to take the record prepares it for the whole group.

        Returns the number of acknowledged durable appends.  The primary
        leg reproduces the single-replica commit path exactly (same RPC
        verb, same ``extra``, parking on timeout); follower legs go
        through :meth:`SimRpc.ship`.  Any member that cannot take the
        record now gets it parked in-order for redelivery — a commit is
        never lost, only late — and ``committed_seq`` advances
        regardless because the cluster-level sequencing already happened.
        """
        self.counters[self.key["ships"]] += 1
        acked = 0
        for idx, member in enumerate(self.members):
            if not self.serving(idx):
                self._defer(idx, seq, batch)
                continue
            if self._pending[idx]:
                # In-order channel: the backlog must land before this
                # record or sequence idempotence would drop it forever.
                self.drain_member(idx)
            if prepared is None and len(batch):
                # Record bytes, plan and leaves are the same on every member
                # (shared ownership, seq, epoch): made once for the group.
                prepared = member.prepare(batch, seq, self.epoch)
            deliver = (
                lambda m=member, b=batch, s=seq, e=self.epoch, p=prepared:
                m.apply(b, s, epoch=e, prepared=p)
            )
            if idx == self.primary_idx:
                try:
                    rpc.call(
                        self.shard_id, alive=member.alive,
                        stall=member.current_stall(now),
                        extra=extra, on_deliver=deliver,
                    )
                    acked += 1
                except (RpcTimeout, ReplicaDown):
                    # Maybe delivered (reply lost) — redelivery is
                    # idempotent by sequence number, so parking is safe.
                    self._defer(idx, seq, batch)
            else:
                delivered, ack = rpc.ship(
                    self.shard_id, idx, alive=member.alive,
                    extra=extra + 7919 * idx, on_deliver=deliver,
                )
                if not delivered:
                    self._defer(idx, seq, batch)
                elif ack:
                    acked += 1
                else:
                    # The follower appended durably; only the ack died.
                    self.counters[self.key["acks_lost"]] += 1
        if acked >= self.ack_quorum:
            self.counters[self.key["quorum_commits"]] += 1
        else:
            self.counters[self.key["under_quorum"]] += 1
        self.committed_seq = max(self.committed_seq, int(seq))
        return acked

    def pending_applies(self) -> int:
        return sum(len(q) for q in self._pending)

    # ---- promotion -----------------------------------------------------------------

    def promote(self) -> int:
        """Fence the old primary's lease and install the best follower.

        Raises :class:`ReplicaDown` when no serving candidate exists
        (whole group down — the caller falls back to WAL-respawn of the
        primary, exactly the factor-1 path).  Returns the new primary's
        member index.
        """
        old_idx = self.primary_idx
        candidates = [
            i for i in range(len(self.members))
            if i != old_idx and self.serving(i)
        ]
        if not candidates:
            raise ReplicaDown(
                f"shard {self.shard_id}: no serving follower to promote"
            )
        best = max(candidates, key=lambda i: (self.members[i].last_seq, -i))
        old_member = self.members[old_idx]
        # Bump-then-fence: every surviving member observes the new lease
        # before the new primary takes writes, so a zombie ex-primary
        # shipping under the old epoch is rejected at the replicas
        # (StaleLeaseError) — split-brain cannot reach a WAL.
        self.epoch += 1
        self.primary_idx = best
        for i, m in enumerate(self.members):
            if i != old_idx and m.alive and not m.recovering:
                m.lease_epoch = max(m.lease_epoch, self.epoch)
        # Catch-up pass 1: the in-order queue holds everything this
        # member was ever shipped but never applied.
        self.drain_member(best)
        # Catch-up pass 2 (WAL backstop): replay any committed suffix
        # straight from the fenced primary's durable directory.  After
        # the queue drain this replays nothing in the modeled fault
        # space — every committed record either reached the member or
        # sat in its queue — but it is what makes promotion safe against
        # coordinator bugs rather than merely consistent with them.
        new_primary = self.members[best]
        for record in read_batch_suffix(
            old_member.durable_dir, after_seq=new_primary.last_seq
        ):
            sub = EventBatch.from_arrays(record.arrays)
            new_primary.apply(
                sub, int(record.meta["seq"]), epoch=self.epoch
            )
            self.counters[self.key["catchup_replayed"]] += 1
        self.counters[self.key["promotions"]] += 1
        return best

    def rejoin(self, idx: int) -> None:
        """A respawned member rejoins: adopt the lease, drain its queue.

        The member respawned from its own WAL (its pre-crash acked
        state); the queue holds everything committed while it was gone,
        so after the drain it is bit-identical to the other members
        again — re-replication restoring the factor.
        """
        member = self.members[idx]
        member.lease_epoch = max(member.lease_epoch, self.epoch)
        self.drain_member(idx)
        # A member whose own log lost acked records (``gap``) cannot be
        # restored by any queue: it takes a drained, gap-free serving peer's
        # state — at its own rejoin, or at the first such peer's.
        donors = [d for d, m in enumerate(self.members)
                  if self.serving(d) and not m.gap]
        for i, m in enumerate(self.members):
            if m.gap and self.serving(i) and donors:
                self.drain_member(donors[0])
                if m.resync_from(self.members[donors[0]]):
                    self.drain_member(i)  # every parked record is a duplicate now

    # ---- reporting -----------------------------------------------------------------

    def __repr__(self) -> str:
        states = "".join(
            ("P" if i == self.primary_idx else "F")
            + ("+" if self.serving(i) else "-")
            for i in range(len(self.members))
        )
        return (
            f"ReplicaGroup(shard={self.shard_id}, members={states}, "
            f"epoch={self.epoch}, quorum={self.ack_quorum})"
        )
