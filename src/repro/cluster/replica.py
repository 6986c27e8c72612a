"""One serving shard: an owned slice of Memory/Mailbox behind its own WAL.

A :class:`ShardReplica` owns the rows of the global node space its
:class:`~repro.cluster.partition.ShardRouter` assignment names.  State is
held *locally indexed* (a dense slice plus a global->local map), and
every mutation follows the same WAL-then-apply protocol the single
serving runtime uses (PR 5): the ownership-filtered event batch is
logged to the replica's private :class:`~repro.durable.store.DurableStateStore`
before any row changes, so a crashed replica recovers — snapshot plus
prefix-consistent log suffix — to state bit-identical to what it acked.

Three invariants make shard-level recovery compose into cluster-level
equivalence:

* **Sequence idempotence** — every applied batch carries the cluster
  commit sequence number; a redelivered batch (lost RPC reply, pending
  queue drain after failover) with ``seq <= last_seq`` is a no-op.
* **Ownership filtering commutes with dedup** — the replica applies only
  the endpoint rows it owns; because duplicates resolve per node (last
  event wins, canonical ring order — :func:`~repro.serve.commit.plan_by_owner`),
  the union of per-shard applies equals one global apply.
* **Snapshots anchor ownership** — a snapshot (written at construction,
  periodically, and at every rebalance hand-off) embeds the owned-node
  array, so the WAL suffix above the newest snapshot is always replayed
  under the ownership it was logged under.
"""

from __future__ import annotations

import os
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..core.mailbox import Mailbox
from ..core.memory import Memory
from ..core.state import state_image
from ..core.stats import declare
from ..durable.codec import KIND_BATCH, encode_payload
from ..durable.store import DurableStateStore
from ..integrity.digest import ChunkedDigest, row_leaves
from ..serve.commit import (
    ApplyPlan,
    apply_plan,
    plan_by_owner,
    plan_updates,
    replay_state,
    stage_updates,
)
from ..serve.events import EventBatch

__all__ = ["ReplicaDown", "StaleLeaseError", "ShardReplica", "Prepared", "prepare_shards",
           "REPLICA_COUNTERS"]

#: a replica's counters (its durable store adds ``wal:*``,
#: ``snapshots_written`` and ``compacted_segments`` under the same prefix).
REPLICA_COUNTERS = ("applied_batches", "applied_rows", "duplicate_batches",
                    "stale_rejects", "crashes", "recoveries", "stalls")


class Prepared(NamedTuple):
    """One sub-batch as every member of its replica group logs and writes it."""

    #: the encoded WAL record.
    record: bytes
    plan: ApplyPlan
    #: ``row_leaves`` of ``plan``'s written rows in the memory table's dtypes.
    leaves: np.ndarray
    #: the chunks ``plan.win_nodes`` fall in.
    chunks: np.ndarray


def prepare_shards(members, batches, seq: int, epochs, parts) -> list:
    """Each shard's :class:`Prepared` for the commit sequenced ``seq``.

    ``members[i]`` is a serving member of shard ``i``'s group,
    ``batches[i]`` its (non-empty) sub-batch, ``epochs[i]`` the group's
    lease epoch and ``parts[i]`` its slice of the commit's
    :func:`~repro.serve.commit.plan_by_owner` plan (``None``: plan the
    sub-batch alone, as replay and redelivery do).  A ``Prepared`` is a
    function of the sub-batch, ``seq``, the epoch and the ownership — all
    common to a replica group — and of none of a member's tables or log,
    so every member logs and applies the same one.

    The record and the local rows are per shard.  The written rows — each
    plan's last row per node cast to the table dtypes, which is what the
    write copies in — are hashed for every shard in one ``row_leaves``
    call, and each shard takes its slice: a commit's rows are hashed once,
    not once per shard, member and table.
    """
    if not members:
        return []
    plans = [m.plan(b, p) for m, b, p in zip(members, batches, parts)]
    data, times = members[0].memory.tables()
    leaves = row_leaves(
        np.concatenate([p.win_values for p in plans]).astype(data.dtype, copy=False),
        np.concatenate([p.win_times for p in plans]).astype(times.dtype, copy=False),
    )
    stops = np.cumsum([len(p.win_nodes) for p in plans]).tolist()
    return [
        Prepared(
            encode_payload(KIND_BATCH, {"seq": int(seq), "watermark": float(b.ts.max()),
                                        "epoch": int(e)}, b.to_arrays()),
            plan, leaves[a:z], m.digests.memory.chunks_of(plan.win_nodes),
        )
        for m, b, e, plan, a, z in zip(members, batches, epochs, plans, [0] + stops, stops)
    ]


class _StateDigests:
    """Maintained chunk digests over one replica's local state tables.

    Readers close over the replica so they always hash the *live* backing
    arrays; the container is rebuilt whenever ownership (and therefore
    table height) changes.
    """

    def __init__(self, replica: "ShardReplica"):
        def digest(component: str) -> ChunkedDigest:
            return ChunkedDigest(
                lambda: replica.tables(component), len(replica.owned)
            )

        self.memory = digest("memory")
        self.mailbox = None if replica.mailbox is None else digest("mailbox")
        self._one_slot = replica.mailbox_slots == 1

    def record_rows(self, rows: np.ndarray, chunks: np.ndarray,
                    leaves: np.ndarray) -> None:
        """Record a plan's written *rows*: memory adopts the plan's *leaves*,
        and so does a one-slot mailbox, whose rows hold the same bytes; a
        ring re-hashes its live rows, since a ring row depends on earlier
        state."""
        self.memory.record_rows(rows, chunks, leaves)
        if self.mailbox is not None:
            self.mailbox.record_rows(rows, chunks, leaves if self._one_slot else None)

    def components(self):
        yield "memory", self.memory
        if self.mailbox is not None:
            yield "mailbox", self.mailbox


class ReplicaDown(RuntimeError):
    """The replica is crashed or still recovering; it serves nothing."""


class StaleLeaseError(RuntimeError):
    """A write arrived stamped with a fenced (superseded) lease epoch.

    Raised by :meth:`ShardReplica.apply` when the carried epoch is older
    than the replica's current lease epoch: the sender is a zombie
    ex-primary that was deposed by a promotion it has not observed.  The
    write is rejected *before* the WAL append, so a split-brain primary
    can never make a follower diverge.
    """


class ShardReplica:
    """One shard's state, durability, and liveness.

    Args:
        shard_id: this replica's shard number.
        owned: global node ids this shard owns (the router's assignment).
        num_nodes: global node-space size (for the global->local map).
        dim: memory/mailbox row width.
        durable_dir: private directory for this shard's WAL + snapshots.
        mailbox_slots: ring slots per node (0 disables the mailbox).
        fsync: WAL durability policy (``'always'``/``'batch'``/``'never'``).
        snapshot_every: applied batches between periodic snapshots.
        member_id: position of this replica inside its replica group
            (0 = initial primary; followers are 1..factor-1).
        host: simulated host this member is placed on (placement asserts
            no two members of one group share a host).
        counters: the counter table to count ``shard:<shard>:m<member>:<name>``
            into, one key per :data:`REPLICA_COUNTERS` name (a private table
            when None).
    """

    def __init__(
        self,
        shard_id: int,
        owned: np.ndarray,
        num_nodes: int,
        dim: int,
        durable_dir: str,
        mailbox_slots: int = 1,
        fsync: str = "batch",
        snapshot_every: int = 64,
        member_id: int = 0,
        host: int = 0,
        counters: Optional[Dict[str, float]] = None,
    ):
        self.shard_id = int(shard_id)
        self.member_id = int(member_id)
        self.host = int(host)
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)
        self.mailbox_slots = int(mailbox_slots)
        self.durable_dir = durable_dir
        self.fsync = fsync
        self.snapshot_every = int(snapshot_every)
        os.makedirs(durable_dir, exist_ok=True)
        #: counter-table prefix of this member, and the key of each
        #: :data:`REPLICA_COUNTERS` name.
        self.prefix = f"shard:{self.shard_id}:m{self.member_id}:"
        self.key = {name: self.prefix + name for name in REPLICA_COUNTERS}
        self.counters = declare(counters, *self.key.values())

        self._reslice(np.sort(np.asarray(owned, dtype=np.int64)))
        self.store: Optional[DurableStateStore] = self._open_store()

        #: newest cluster commit sequence number durably applied.
        self.last_seq = -1
        #: the last respawn came back short of what was acked (the log was
        #: damaged before the crash); the group re-syncs it from a peer.
        self.gap = False
        #: newest replica-group lease epoch this member has observed;
        #: writes stamped with an older epoch are fenced (rejected).
        self.lease_epoch = 0
        self.alive = True
        self.recovering = False
        self.ready_at = 0.0
        #: simulated time until which calls run ``stall_factor`` slower.
        self.stall_until = -np.inf
        self.stall_factor = 1.0
        self._since_snapshot = 0
        # Anchor: ownership is durable before the first WAL record.
        self.write_snapshot()
        #: maintained (expected) chunk digests — refreshed on every
        #: legitimate write, so silent out-of-band mutation is detectable.
        self.digests: Optional[_StateDigests] = _StateDigests(self)

    # ---- liveness ------------------------------------------------------------------

    def _open_store(self) -> DurableStateStore:
        return DurableStateStore(self.durable_dir, fsync=self.fsync,
                                 counters=self.counters, prefix=self.prefix)

    def current_stall(self, now: float) -> float:
        """Service-time multiplier in effect at *now*."""
        return self.stall_factor if now < self.stall_until else 1.0

    def stall(self, now: float, factor: float, window: float) -> None:
        """Enter a stall window: every call until ``now + window`` is slow."""
        self.stall_until = now + float(window)
        self.stall_factor = max(1.0, float(factor))
        self.counters[self.key["stalls"]] += 1

    def crash(self) -> None:
        """Kill the process: in-RAM state is gone, the durable dir survives.

        The store is closed (its buffered WAL tail flushes — disk-level
        loss is modeled separately by the ``disk.*`` fault sites), so
        everything this replica *acked* is durable and recovery is exact.
        """
        if not self.alive:
            return
        self.alive = False
        self.counters[self.key["crashes"]] += 1
        self.memory = None
        self.mailbox = None
        self.digests = None
        if self.store is not None:
            self.store.close()
            self.store = None

    def begin_recovery(self, ready_at: float) -> None:
        """Failover initiated: a respawn completes at *ready_at*."""
        self.recovering = True
        self.ready_at = float(ready_at)

    def estimate_recovery_seconds(self, base: float, per_batch: float) -> float:
        """Modeled takeover time: snapshot load plus WAL-suffix replay."""
        return base + per_batch * max(0, self._since_snapshot)

    def respawn(self) -> Dict[str, object]:
        """Rebuild state from the durable directory and rejoin.

        Loads the newest intact snapshot (ownership included), replays
        the committed WAL suffix through the same :meth:`plan` live
        traffic uses (:func:`~repro.serve.commit.replay_state`), and
        restores the applied sequence cursor — bit-identical to the
        state at the last acked apply (prefix-consistent: a torn tail
        was never acked).
        """
        self.store = self._open_store()
        state = self.store.recover()
        if state.snapshot_arrays is None:
            raise RuntimeError(
                f"shard {self.shard_id}: no snapshot to recover ownership from"
            )
        self._reslice(np.asarray(state.snapshot_arrays["owned"], dtype=np.int64))
        replayed, marks = replay_state(
            state, self.plan, self.memory, self.mailbox, "shard snapshot"
        )
        # A crash keeps the cursor.  Records lost with a damaged log show
        # only as coming back short of it: a shard's sequence has holes.
        self.gap = int(marks.get("seq", -1)) < self.last_seq
        self.last_seq = int(marks.get("seq", -1))
        self.lease_epoch = int(marks.get("epoch", 0))
        # Digests of the replayed tables: what the apply path produced.
        self.digests = _StateDigests(self)
        self._since_snapshot = replayed
        self.alive = True
        self.recovering = False
        self.counters[self.key["recoveries"]] += 1
        return {"replayed": replayed, "seq": self.last_seq}

    # ---- state application ---------------------------------------------------------

    def prepare(self, batch: EventBatch, seq: int, epoch: int,
                part: Optional[ApplyPlan] = None) -> Prepared:
        """:func:`prepare_shards` of this one shard: the :class:`Prepared`
        of (non-empty) *batch* at ``(seq, epoch)``, *part* being this
        shard's slice of the commit's plan, if one was made."""
        return prepare_shards([self], [batch], seq, [epoch], [part])[0]

    def plan(self, batch: EventBatch, part: Optional[ApplyPlan] = None) -> ApplyPlan:
        """The rows *batch* writes on this shard: staged, owned, deduplicated.

        *part* is this shard's slice of a whole request's
        :func:`~repro.serve.commit.plan_by_owner` plan when the coordinator
        made one; without it the same function runs over just *batch*, so
        respawn replay, shadow replay and redelivery write the exact rows
        the live commit wrote, or recovery equivalence breaks.
        """
        if part is None:
            nodes, values, times = stage_updates(batch, self.dim)
            mine = (nodes >= 0) & (nodes < self.num_nodes)
            mine &= self._local.take(nodes, mode="clip") >= 0
            part = plan_by_owner(nodes, values, times, mine - 1).get(0)
            if part is None:  # nothing here is ours: the empty plan
                part = plan_updates(nodes[:0], values[:0], times[:0])
        # Ownership is sorted, so local rows ascend with the global ids
        # and the canonical order stands.
        return part._replace(nodes=self._local[part.nodes],
                             win_nodes=self._local[part.win_nodes])

    def apply(self, batch: EventBatch, seq: int, epoch: int,
              prepared: Optional[Prepared] = None) -> bool:
        """Durably apply one cluster-committed sub-batch (idempotent).

        WAL-then-apply: the sub-batch is logged before any row changes,
        so an ack implies durability.  Returns False for a redelivered
        sequence number (already applied — nothing happens).

        *epoch* is the sender's replica-group lease epoch: a write fenced
        by a promotion this member has already observed
        (``epoch < lease_epoch``) raises :class:`StaleLeaseError` before
        touching the log; a newer epoch is adopted (lease renewal rides
        on the ship).

        *prepared* is this shard's :func:`prepare_shards` result when the
        commit made one (the same function, run once for all shards and
        members); without it the member prepares its own.
        """
        if not self.alive or self.memory is None:
            raise ReplicaDown(f"shard {self.shard_id} is down")
        if epoch < self.lease_epoch:
            self.counters[self.key["stale_rejects"]] += 1
            raise StaleLeaseError(
                f"shard {self.shard_id} member {self.member_id}: write "
                f"stamped epoch {epoch} rejected (lease epoch is "
                f"{self.lease_epoch} — sender was fenced)"
            )
        self.lease_epoch = int(epoch)
        if seq <= self.last_seq:
            self.counters[self.key["duplicate_batches"]] += 1
            return False
        if not len(batch):
            self.last_seq = int(seq)
            return True
        record, plan, leaves, chunks = prepared or self.prepare(batch, seq, self.lease_epoch)
        self.store.log_encoded(record)
        apply_plan(plan, self.memory, self.mailbox)
        if len(plan.nodes) and self.digests is not None:
            # Leaves of the logged plan, recorded with the write: the
            # maintained digests describe what the WAL says the rows hold
            # (what replay produces), so a later recompute mismatch proves
            # the rows hold something else — including a write that landed
            # other bytes.
            self.digests.record_rows(plan.win_nodes, chunks, leaves)
        self.last_seq = int(seq)
        self.counters[self.key["applied_batches"]] += 1
        # owned endpoint rows staged (two per event at most)
        self.counters[self.key["applied_rows"]] += len(plan.nodes)
        self._since_snapshot += 1
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.write_snapshot()
        return True

    def gather(self, nodes: np.ndarray) -> np.ndarray:
        """Memory rows for owned global *nodes* (scoring-path read)."""
        if not self.alive or self.memory is None:
            raise ReplicaDown(f"shard {self.shard_id} is down")
        local = self._local[np.asarray(nodes, dtype=np.int64)]
        if (local < 0).any():
            raise KeyError(
                f"shard {self.shard_id} asked for {int((local < 0).sum())} "
                "nodes it does not own"
            )
        return self.memory.data.data[local]

    # ---- integrity -----------------------------------------------------------------

    def tables(self, component: str) -> Tuple[np.ndarray, ...]:
        """The live arrays of one state component, each indexed by local row."""
        if component == "memory":
            return self.memory.tables()
        if component == "mailbox" and self.mailbox is not None:
            return self.mailbox.tables()
        raise KeyError(f"unknown state component {component!r}")

    def read_rows(self, component: str, rows: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Copies of local *rows* of one state table (repair-donor read)."""
        rows = np.asarray(rows, dtype=np.int64)
        return tuple(table[rows] for table in self.tables(component))

    def overwrite_rows(
        self,
        component: str,
        rows: np.ndarray,
        arrays: Tuple[np.ndarray, ...],
        record: bool = False,
    ) -> None:
        """Integrity repair: overwrite local *rows* of one state table.

        With ``record=False`` (corruption repair) the maintained digests
        are left alone so the scrubber's post-repair recompute verifies
        the repair against the pre-corruption expectation; ``record=True``
        (logical-divergence repair) adopts the new rows as the expected
        state.
        """
        rows = np.asarray(rows, dtype=np.int64)
        for table, new in zip(self.tables(component), arrays):
            table[rows] = new
        if record and self.digests is not None:
            getattr(self.digests, component).record_rows(rows)

    def shadow_state(self) -> Optional[Tuple[Memory, Optional[Mailbox], int]]:
        """Rebuild acked state from durable evidence, without side effects.

        Read-only respawn: loads the newest snapshot and replays the
        committed WAL suffix into *fresh* tables — the live tables, the
        WAL, and the maintained digests are untouched.  Returns ``None``
        when the evidence cannot arbitrate: no snapshot, ownership
        drifted from the live tables (mid-rebalance), or the replay falls
        short of the live applied sequence (damaged or torn suffix).
        """
        if self.store is None or not self.alive:
            return None
        state = self.store.recover()
        if state.snapshot_arrays is None:
            return None
        owned = np.asarray(state.snapshot_arrays["owned"], dtype=np.int64)
        if not np.array_equal(owned, self.owned):
            return None
        memory, mailbox = self._new_tables(len(owned))
        _, marks = replay_state(state, self.plan, memory, mailbox, "shard snapshot")
        seq = int(marks.get("seq", -1))
        if seq != self.last_seq:
            return None
        return memory, mailbox, seq

    def resync_from(self, peer: "ShardReplica") -> bool:
        """Cure a :attr:`gap`: take *peer*'s acked durable state (its
        :meth:`shadow_state`, so a flip in its RAM is not copied) and anchor
        it with a snapshot.  False when the peer's evidence cannot arbitrate."""
        shadow = peer.shadow_state()
        if shadow is None:
            return False
        self._reslice(peer.owned)
        self.memory, self.mailbox, self.last_seq = shadow
        self.digests = _StateDigests(self)
        self.write_snapshot()
        self.gap = False
        return True

    def verify_wal(self) -> list:
        """Damaged WAL segment paths (empty = every segment parses intact)."""
        if self.store is None:
            return []
        return self.store.wal.verify()

    def reanchor_wal(self) -> int:
        """Repair a damaged WAL by re-anchoring on verified live state.

        Rotate-then-snapshot: the damaged segment is sealed, the snapshot
        covers every record it held, and compaction deletes it — callers
        must have digest-verified the live tables first, because the
        snapshot *is* them.  Returns the number of segments dropped.
        """
        if self.store is None or not self.alive:
            raise ReplicaDown(f"shard {self.shard_id} is down")
        compacted = self.store.compacted_key
        before = self.counters[compacted]
        self.store.wal.rotate()
        self.write_snapshot()
        return self.counters[compacted] - before

    # ---- snapshots / rebalance -----------------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The core state image plus the ownership it is sliced by."""
        return {"owned": self.owned, **state_image(self.memory, self.mailbox)}

    def write_snapshot(self) -> None:
        """Durably anchor state + ownership; compacts the log below it."""
        self.store.snapshot(
            self.state_arrays(),
            {"seq": int(self.last_seq), "epoch": int(self.lease_epoch)},
        )
        self._since_snapshot = 0

    def _new_tables(self, rows: int) -> Tuple[Memory, Optional[Mailbox]]:
        """Zeroed local tables of *rows* rows."""
        mailbox = (
            Mailbox(rows, self.dim, slots=self.mailbox_slots)
            if self.mailbox_slots > 0
            else None
        )
        return Memory(rows, self.dim), mailbox

    def _reslice(self, owned: np.ndarray) -> None:
        """Own *owned* (sorted), with a fresh map and zeroed local tables."""
        self.owned = owned
        self._local = np.full(self.num_nodes, -1, dtype=np.int64)
        self._local[self.owned] = np.arange(len(self.owned))
        self.memory, self.mailbox = self._new_tables(len(self.owned))

    def release(self, nodes: np.ndarray) -> Dict[str, np.ndarray]:
        """Hand off *nodes*' rows (rebalance); shrinks this shard.

        Returns the handed-off state for :meth:`adopt` on the receiving
        shard and snapshots the new, smaller ownership so recovery can
        never resurrect released rows here.
        """
        if not self.alive:
            raise ReplicaDown(f"shard {self.shard_id} is down")
        nodes = np.sort(np.asarray(nodes, dtype=np.int64))
        local = self._local[nodes]
        if (local < 0).any():
            raise KeyError(f"shard {self.shard_id} releasing unowned nodes")
        # Every array of the state image is indexed by local row, so rows
        # move between tables by indexing each one the same way.
        old, old_local = state_image(self.memory, self.mailbox), self._local
        out = {"nodes": nodes, **{key: rows[local] for key, rows in old.items()}}
        self._reslice(np.setdiff1d(self.owned, nodes))
        kept_local = old_local[self.owned]
        for key, rows in state_image(self.memory, self.mailbox).items():
            rows[...] = old[key][kept_local]
        self.digests = _StateDigests(self)
        self.write_snapshot()
        return out

    def adopt(self, state: Dict[str, np.ndarray]) -> None:
        """Take ownership of rows released by another shard."""
        if not self.alive:
            raise ReplicaDown(f"shard {self.shard_id} is down")
        incoming = np.asarray(state["nodes"], dtype=np.int64)
        old, old_local = state_image(self.memory, self.mailbox), self._local
        self._reslice(np.union1d(self.owned, incoming))
        prev = old_local[self.owned]
        had = prev >= 0
        new_local = self._local[incoming]
        for key, rows in state_image(self.memory, self.mailbox).items():
            rows[had] = old[key][prev[had]]
            rows[new_local] = state[key]
        self.digests = _StateDigests(self)
        self.write_snapshot()

    # ---- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Idempotent; safe on crashed replicas (their store is gone)."""
        if self.store is not None:
            self.store.close()
            self.store = None

    def __repr__(self) -> str:
        state = (
            "recovering" if self.recovering
            else ("alive" if self.alive else "dead")
        )
        return (
            f"ShardReplica(shard={self.shard_id}, nodes={len(self.owned)}, "
            f"seq={self.last_seq}, {state})"
        )
