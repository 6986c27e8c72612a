"""The cluster coordinator: sharded serving with the single-node guarantees.

:class:`ServeCluster` is the :class:`~repro.serve.engine.ServeEngine`
backend whose state is sharded: the request loop (``submit`` / ``step``
/ ``drain`` / ``swap_model`` / ``results`` / ``stats`` / ``close``) is
the engine's, shared line for line with
:class:`~repro.serve.runtime.ServeRuntime`, so the replay harness and
the chaos benchmarks drive a cluster unchanged.  This module implements
only the seam — where the rows come from and where the commits go.

Each shard is a :class:`~repro.cluster.replication.ReplicaGroup` —
``replication_factor`` members on distinct hosts, one primary plus
followers — and the seam uses the group at both ends:

* **Reads** (``_gather``) are scatter-gather with **failover**, one wave
  per request (a sampling rung reads its endpoints and their sampled
  neighbours together, so each touched shard gets one call): each
  touched shard's rows come from its preferred read member
  (:meth:`~repro.cluster.replication.ReplicaGroup.read_member`) over
  :class:`~repro.cluster.rpc.SimRpc` (timeout + retry + hedging); when
  that member is unreachable the gather retries the remaining serving
  members, so reads survive the detection→promotion window that a
  factor-1 cluster zero-fills.  Only when *every* member of a group is
  down do that shard's rows zero-fill — and then the returned per-row
  mask marks them (counted as ``cluster:zero_rows``), which the engine
  turns into ``RequestResult.valid`` and a ``partial`` result.
  ``staleness_bound`` picks between ``'bounded'`` follower reads (lag at
  most the follower's parked queue) and ``'strict'`` read-your-commits
  (block the gather on promotion).
* **Commits** (``_commit``) are checked once at the coordinator
  (:func:`~repro.serve.commit.stage_checked`, the single runtime's check
  too), stamped with a cluster sequence number, prepared once for
  every touched shard (:func:`~repro.cluster.replica.prepare_shards`),
  then **quorum log-shipped** to every member of each touched group
  (:meth:`~repro.cluster.replication.ReplicaGroup.ship`): each member
  WAL-logs its ownership-filtered sub-batch before applying it, and the
  commit is quorum-acked when ``ack_quorum`` members confirmed the
  durable append.  A member that cannot take the record now (down,
  dropped ship, RPC budget exhausted) gets it parked in its in-order
  queue and redelivered — idempotently, by sequence number — when it
  rejoins.
* **Failures** are injected between requests (``_before_request`` calls
  :func:`repro.resilience.chaos.inject_member_faults` while a fault
  injector is installed) and detected by
  the :class:`~repro.cluster.supervisor.Supervisor`'s heartbeat loop,
  which drives lease-fenced promotion of the best follower, WAL-replay
  respawn + re-replication of dead members, and hot-spot rebalancing.

Because every group member applies exactly the committed event sequence
(eventually — member queues drain before :meth:`drain` returns) through
the same content-deterministic commit path, the assembled
:meth:`memory_image` / :meth:`mailbox_image` after any chaos schedule is
bit-identical to a clean single-runtime replay of the same admitted
stream — at any replication factor, killing up to ``factor - 1`` members
per group.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.batch import TBatch
from ..core.kernels.dedup import group_spans
from ..core.stats import declare
from ..integrity.scrubber import Scrubber
from ..resilience import hooks
from ..resilience.chaos import inject_member_faults
from ..serve.commit import plan_by_owner, stage_checked
from ..serve.deadline import FIXED, PER_EVENT, REFERENCE_PENALTY
from ..serve.engine import ServeEngine
from .partition import ShardRouter, place_group_hosts
from .replica import ReplicaDown, ShardReplica, prepare_shards
from .replication import ReplicaGroup
from .rpc import RpcTimeout, SimRpc
from .supervisor import Supervisor

__all__ = ["ClusterConfig", "ShardedCostModel", "ServeCluster"]


@dataclass
class ClusterConfig:
    """What differs between one :class:`ServeCluster` deployment and the next.

    The RPC, failure-detection, takeover and rebalance timings are not
    here: each is a class constant of the component that uses it
    (:class:`~repro.cluster.rpc.SimRpc`,
    :class:`~repro.cluster.supervisor.Supervisor`), scaled to the serving
    cost model (full-rung service is ~1e-2s for a 100-event request).
    """

    num_shards: int = 4
    partition: str = "hash"  # 'hash' | 'temporal'
    seed: int = 0
    replication_factor: int = 1
    ack_quorum: Optional[int] = None  # None -> majority (factor//2 + 1)
    staleness_bound: str = "bounded"  # 'bounded' | 'strict'
    # durability
    durable_root: Optional[str] = None  # None -> private temp dir
    fsync: str = "batch"
    snapshot_every: int = 64
    # integrity scrubbing
    scrub_interval: float = 0.25  # simulated seconds; <= 0 disables

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.staleness_bound not in ("bounded", "strict"):
            raise ValueError(
                f"staleness_bound {self.staleness_bound!r} "
                "(expected 'bounded' or 'strict')"
            )


class ShardedCostModel:
    """Service-cost model for scatter-gather serving over live shards.

    Per-event work divides across the shards currently able to serve
    (the parallel speedup the cluster exists for); each request
    additionally pays RPC round trips — two for the sampling rungs, one
    for the cheap ones.  Every rung reads in one gather wave, yet the
    sampling rungs are priced at two: these constants are hand-set, not
    calibrated, and this one is kept so that the read path moves no
    deadline decision.  Duck-types
    :class:`~repro.serve.deadline.CostModel` for the ladder and the
    replay harness.
    """

    def __init__(self, cluster: "ServeCluster"):
        self._cluster = cluster

    def estimate(self, level: str, n_events: int, ctx=None) -> float:
        live = max(1, self._cluster.live_shards())
        cost = FIXED + PER_EVENT[level] * n_events / live
        rpc = SimRpc.SERVICE
        if level in ("full", "reduced"):
            cost += 2.0 * rpc
            if ctx is not None and ctx.is_degraded("kernel.sample"):
                cost *= REFERENCE_PENALTY
        else:
            cost += rpc
        return cost


class ServeCluster(ServeEngine):
    """N-shard fault-tolerant serving behind the single-runtime surface.

    Args:
        graph / ctx / sampler: as :class:`~repro.serve.engine.ServeEngine`.
        dim: memory/mailbox row width on every shard.
        config: :class:`ClusterConfig` (defaults used when ``None``).
        mailbox_slots: ring slots per node (0 disables mailboxes).
        stream: seeding event stream, required by the ``temporal``
            partition policy.
        **engine: the shared request-loop knobs (``deadline``,
            ``lateness``, ``max_queue``, ``shed_policy``, ``rate``),
            declared once on
            :class:`~repro.serve.engine.ServeEngine`.  The ladder prices
            requests with :class:`ShardedCostModel`.

    Every component counts into ``ctx.counters``: ``cluster:*`` (this
    coordinator, the supervisor, chaos), ``rpc:*``, ``integrity:*``,
    ``group:<shard>:*`` and ``shard:<shard>:m<member>:*``.
    """

    def __init__(
        self,
        graph,
        ctx,
        sampler,
        dim: int,
        config: Optional[ClusterConfig] = None,
        mailbox_slots: int = 1,
        stream=None,
        **engine,
    ):
        super().__init__(graph, ctx, sampler, **engine)
        self.ladder.cost_model = ShardedCostModel(self)
        self.dim = int(dim)
        self.config = config or ClusterConfig()

        cfg = self.config
        self.router = ShardRouter.build(
            cfg.partition, graph.num_nodes, cfg.num_shards,
            seed=cfg.seed, stream=stream,
        )
        self._tmpdir = None
        root = cfg.durable_root
        if root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            root = self._tmpdir.name
        counters = declare(
            ctx.counters, "cluster:commits", "cluster:commit_retries",
            "cluster:rollbacks", "cluster:partial_results", "cluster:zero_rows",
            "cluster:injected_crashes", "cluster:injected_stalls",
            "cluster:injected_flips", "cluster:follower_reads",
            "cluster:staleness_lag", "cluster:strict_fallbacks",
        )
        hosts = place_group_hosts(cfg.num_shards, cfg.replication_factor)
        self.groups: List[ReplicaGroup] = []
        for i in range(cfg.num_shards):
            members = [
                ShardReplica(
                    i, self.router.owned_nodes(i), graph.num_nodes, self.dim,
                    # followers are suffixed, so a group's primary
                    # directory has the same name at every factor
                    os.path.join(
                        root, f"shard{i:03d}" + ("" if m == 0 else f"-r{m}")
                    ),
                    mailbox_slots=mailbox_slots, fsync=cfg.fsync,
                    snapshot_every=cfg.snapshot_every,
                    member_id=m, host=hosts[i][m], counters=counters,
                )
                for m in range(cfg.replication_factor)
            ]
            self.groups.append(
                ReplicaGroup(i, members, ack_quorum=cfg.ack_quorum,
                             counters=counters)
            )
        self.rpc = SimRpc(self.clock, counters=counters)
        self.scrubber = Scrubber(
            self.groups, self.clock, interval=cfg.scrub_interval,
            counters=counters,
        )
        self.supervisor = Supervisor(self.clock, self.groups, self.router,
                                     self.scrubber, counters=counters)
        #: cluster commit sequence; every shard sub-batch carries it.
        self.seq = -1
        self.committed_watermark = -np.inf

    # ---- liveness ------------------------------------------------------------------

    def live_shards(self) -> int:
        """Shards with at least one member able to serve right now."""
        return sum(1 for g in self.groups if g.any_serving())

    # perf/trace.py patches these three on *this* class (it looks them up
    # in vars(ServeCluster)), so they must be own attributes, not merely
    # inherited ones.
    submit, step, drain = ServeEngine.submit, ServeEngine.step, ServeEngine.drain

    # ---- the seam: between requests, after drain -----------------------------------

    def _before_request(self) -> None:
        """Apply due member faults, then detect, fail over, and scrub.

        Member faults are consulted only while a fault injector is
        installed: with none, every site answers no, so a fault-free
        request skips the per-member pokes."""
        if hooks.active() is not None:
            inject_member_faults(self.groups, self.clock.now(), self.ctx.counters)
        self.supervisor.tick()
        self.scrubber.maybe_scrub()

    def _after_drain(self) -> None:
        """Settle every failover, then run the terminal anti-entropy pass.

        Afterwards no shard is mid-recovery and every pending sub-batch
        has been applied, so the assembled state images reflect the
        complete committed stream; any flip still hiding (injected after
        the last periodic cycle) is caught before they are read as ground
        truth.
        """
        self._settle()
        self.scrubber.scrub_now()

    def _settle(self) -> None:
        """Complete all outstanding failovers and drain member queues."""
        for i, group in enumerate(self.groups):
            for m, rep in enumerate(group.members):
                if not rep.alive and not rep.recovering:
                    # crashed but not yet declared by the detector
                    self.supervisor.force_failover(i, member=m)

        def _recovering():
            return [
                rep for g in self.groups for rep in g.members if rep.recovering
            ]

        guard = 0
        members_total = sum(g.factor for g in self.groups)
        while _recovering():
            ready = min(rep.ready_at for rep in _recovering())
            self.clock.advance_to(ready)
            self.supervisor.tick()
            guard += 1
            if guard > 4 * members_total + 16:
                raise RuntimeError("cluster failed to settle recoveries")
        for i, group in enumerate(self.groups):
            for m in range(group.factor):
                group.drain_member(m)
            if group.any_serving():
                self.supervisor.ensure_primary(i)

    # ---- the seam: scatter-gather reads --------------------------------------------

    def _gather(self, nodes: np.ndarray, extra: int):
        """Memory rows for *nodes* from their owning groups.

        Returns ``(rows, ok)`` — the gathered ``(n, dim)`` rows and a
        boolean per-row validity mask.  One scatter-gather wave: each
        touched shard is read from its preferred member
        (primary, else the most-caught-up serving follower); a failed
        attempt (timeout, crash mid-wave) fails over to the remaining
        serving members of the group, so rows zero-fill **only** when a
        whole group is down — and then their mask rows go False instead
        of the zeros passing silently (the engine counts them).  The
        wave's wall time is its
        slowest shard — calls overlap — and only the excess beyond the
        nominal round trip already priced by the cost model is charged
        to the clock.

        Under ``staleness_bound='strict'`` a gather about to read a
        follower first forces promotion (read-your-commits); under
        ``'bounded'`` the follower answers immediately, stale by at most
        its parked queue.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        rows = np.zeros((len(nodes), self.dim), dtype=np.float32)
        ok = np.ones(len(nodes), dtype=bool)
        if not len(nodes):
            return rows, ok
        # One stable grouping per wave: shard k's rows are order[a:b], in
        # their input order.
        shards = self.router.shard_of(nodes)
        order = np.argsort(shards, kind="stable")
        now = self.clock.now()
        strict = self.config.staleness_bound == "strict"
        slowest = 0.0
        c = self.ctx.counters
        for k, (shard, a, b) in enumerate(zip(*group_spans(shards[order]))):
            group = self.groups[shard]
            ridx = group.read_member()
            if strict and ridx is not None and ridx != group.primary_idx:
                # Read-your-commits: no follower read while a promotion
                # can still give this gather a real primary.
                if self.supervisor.ensure_primary(shard):
                    c["cluster:strict_fallbacks"] += 1
                ridx = group.read_member()
            candidates = [] if ridx is None else [ridx] + [
                i for i in range(group.factor)
                if i != ridx and group.serving(i)
            ]
            idx = order[a:b]
            mine = nodes[idx]
            served = False
            for ridx2 in candidates:
                member = group.members[ridx2]
                try:
                    elapsed = self.rpc.call(
                        shard, alive=member.alive,
                        stall=member.current_stall(now),
                        extra=extra + 17 * shard + k + 7919 * ridx2,
                    )
                except RpcTimeout:
                    continue  # fail over to the next serving member
                # Read-repair: during a suspect window (a skipped scrub
                # cycle) verify exactly the chunks this read touches
                # before any row is served.
                self.scrubber.guard_read(shard, group, ridx2, mine)
                rows[idx] = member.gather(mine)
                slowest = max(slowest, elapsed)
                if ridx2 != group.primary_idx:
                    c["cluster:follower_reads"] += 1
                    # how far behind the group's commits this read is
                    c["cluster:staleness_lag"] += max(
                        0, group.committed_seq - member.last_seq
                    )
                served = True
                break
            if not served:
                ok[idx] = False
                c["cluster:zero_rows"] += b - a
        self.clock.advance(max(0.0, slowest - SimRpc.SERVICE))
        return rows, ok

    # ---- the seam: commit fan-out --------------------------------------------------

    def _commit(self, released: TBatch, rid: int) -> None:
        """Check once at the coordinator, then fan out by ownership.

        :func:`~repro.serve.commit.stage_checked` is the single runtime's
        check too; staged rows are a pure function of event content, so
        refusing a batch *before* fan-out quarantines exactly the same
        batches without needing cross-shard two-phase commit.

        Work common to the shards is done once per commit: the plan, the
        load record and the preparation (records, local rows, leaves and
        chunks of every shard); each shard's group keeps only its own
        ship legs, WAL appends and row writes.
        """
        staged = stage_checked(released, self.dim)
        c = self.ctx.counters
        c["cluster:commit_retries"] += staged.retries
        if staged.violations:
            c["cluster:rollbacks"] += 1
            self.ingest.quarantine_batch(released, "; ".join(staged.violations))
            return
        self.seq += 1
        seq = self.seq
        now = self.clock.now()
        # One owner lookup per endpoint feeds both partitions: events into
        # sub-batches, staged rows into each shard's slice of the one plan.
        ends = self.router.endpoint_shards(released)
        owner = np.concatenate(ends)
        parts = plan_by_owner(staged.nodes, staged.values, staged.times, owner)
        subs = self.router.split_batch(released, ends)
        self.supervisor.note_load(
            {shard: len(part.nodes) for shard, part in parts.items()},
            staged.nodes[owner >= 0],
        )
        for shard in subs:
            group = self.groups[shard]
            if group.serving_primary() is None and group.any_serving():
                # A commit needs a leased primary to sequence under; a
                # serving follower means promotion can happen right now
                # instead of parking the record for the respawn.
                self.supervisor.ensure_primary(shard)
        # One preparation for every group a member can take the commit on
        # now; the others park the sub-batch and prepare at redelivery.
        ready = [shard for shard in subs if self.groups[shard].any_serving()]
        prepared = dict(zip(ready, prepare_shards(
            [self.groups[s].members[self.groups[s].read_member()] for s in ready],
            subs.events, [subs.spans[s] for s in ready], seq,
            [self.groups[s].epoch for s in ready], [parts[s] for s in ready],
        )))
        for shard, sub in subs.items():
            self.groups[shard].ship(
                sub, seq, self.rpc, now,
                extra=104729 * (rid + 1) + 31 * shard + 7,
                prepared=prepared.get(shard),
            )
        c["cluster:commits"] += 1
        self.committed_watermark = max(self.committed_watermark, staged.watermark)

    # ---- assembled state images ----------------------------------------------------

    def _image(self, component: str) -> Tuple[np.ndarray, ...]:
        """One component's global tables: each row from its owning primary."""
        n = self.graph.num_nodes
        image: Tuple[np.ndarray, ...] = ()
        for rep in (g.primary for g in self.groups):
            if rep.memory is None:
                raise ReplicaDown(f"shard {rep.shard_id} is down; drain() first")
            tables = rep.tables(component)
            if not image:
                image = tuple(
                    np.zeros((n,) + rows.shape[1:], dtype=rows.dtype) for rows in tables
                )
            for out, rows in zip(image, tables):
                out[rep.owned] = rows
        return image

    def memory_image(self):
        """Global ``(data, time)`` memory arrays assembled from the shards.

        Every node's row comes from its owning shard, so after
        :meth:`drain` the image is directly comparable — bit-for-bit —
        with a single runtime's ``memory.tables()``.
        """
        return self._image("memory")

    def mailbox_image(self):
        """Global ``(mail, time, cursor)`` mailbox arrays from the shards
        (``cursor`` is ``None`` for one-slot mailboxes)."""
        primary = self.groups[0].primary
        if primary.mailbox_slots <= 0:
            return None
        image = self._image("mailbox")
        # Tables the mailboxes do not hold (the cursor of a one-slot ring)
        # are reported as None.
        declared = len(primary.mailbox.TABLE_KEYS)
        return image + (None,) * (declared - len(image))

    # ---- reporting / lifecycle -----------------------------------------------------

    def pending_applies(self) -> int:
        return sum(g.pending_applies() for g in self.groups)

    def _gauges(self) -> Dict[str, object]:
        """The engine's gauges, the topology, and sums over groups/members."""
        out = super()._gauges()
        c, cfg, groups = self.ctx.counters, self.config, self.groups
        out.update({
            "cluster:shards": cfg.num_shards,
            "cluster:replication_factor": cfg.replication_factor,
            "cluster:live_shards": self.live_shards(),
            "cluster:partition": self.router.policy,
            "cluster:assignment_version": self.router.version,
            "cluster:pending_applies": self.pending_applies(),
            # totals of what the groups and their members counted
            "cluster:deferred_applies": sum(c[g.key["deferred"]] for g in groups),
            "cluster:redelivered": sum(c[g.key["redelivered"]] for g in groups),
            "cluster:promotions": sum(c[g.key["promotions"]] for g in groups),
            "cluster:recoveries": sum(c[rep.key["recoveries"]]
                                      for g in groups for rep in g.members),
        })
        if self.supervisor.recovery_seconds:
            out["cluster:mean_time_to_recover"] = float(
                np.mean(self.supervisor.recovery_seconds))
        for i, g in enumerate(groups):
            out.update({f"group:{i}:{k}": v for k, v in (
                ("factor", g.factor), ("primary", g.primary_idx), ("epoch", g.epoch),
                ("ack_quorum", g.ack_quorum), ("committed_seq", g.committed_seq),
                ("pending", g.pending_applies()))})
            for rep in g.members:
                out.update({rep.prefix + k: v for k, v in (
                    ("owned_nodes", int(len(rep.owned))), ("alive", bool(rep.alive)),
                    ("last_seq", rep.last_seq), ("lease_epoch", rep.lease_epoch),
                    ("host", rep.host))})
                if rep.store is not None:
                    out[rep.prefix + "wal_last_lsn"] = rep.store.wal.last_lsn
        return out

    def _release(self) -> None:
        """Close every group member (dead ones included)."""
        for group in self.groups:
            for rep in group.members:
                rep.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __repr__(self) -> str:
        return (
            f"ServeCluster(shards={self.config.num_shards}, "
            f"live={self.live_shards()}, served={len(self.results)}, "
            f"clock={self.clock.now():.6g})"
        )
