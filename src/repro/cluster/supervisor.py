"""Heartbeat failure detection, lease-fenced promotion, and rebalancing.

The :class:`Supervisor` is the cluster's control plane, driven entirely
by the shared simulated clock so every run is replayable:

* **Heartbeats** — each live replica-group member beats every
  ``heartbeat_interval`` seconds; a beat can be lost at the
  ``heartbeat.drop`` fault site.  The detector scores every member with
  a phi-accrual-style suspicion level, ``phi = missed_intervals =
  (now - last_beat) / interval``: crossing ``suspect_phi`` marks the
  member *suspect*, crossing ``dead_phi`` marks it *dead* and triggers
  failover.  A suspect member that beats again returns to *ok*.
  Members deliberately **quiesced** for a planned hand-off accrue no
  phi at all — their beats are suppressed together with their detection,
  and their beat clock resets on resume — so a rebalance can never be
  mistaken for a failure.
* **Failover & promotion** — a dead member is fenced (crashed) and its
  WAL-replay respawn scheduled.  When the dead member was its group's
  *primary* and a serving follower exists, the supervisor drives the
  promotion state machine ``OK → SUSPECT → DEAD → PROMOTING → OK``:
  the group's lease epoch is bumped (fencing any zombie ex-primary),
  the most-caught-up follower takes over
  (:meth:`~repro.cluster.replication.ReplicaGroup.promote`), and the
  modeled promotion time is charged to the clock.  The ``repl.promote``
  fault site can delay an attempt by one tick (bounded retries keep the
  window finite).  The respawned ex-primary rejoins as a follower and
  catches up from its queue — re-replication restoring the factor.
* **Rebalance** — per-shard load is accumulated per observation window;
  when one shard sustains more than ``rebalance_factor``x the mean load
  for ``rebalance_patience`` consecutive windows, the hottest nodes of
  the hot shard move to the least-loaded shard.  With replication the
  hand-off moves the rows on *every* member of both groups (so group
  members stay bit-identical), behind a quiesce window whose modeled
  time is charged to the clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.stats import declare
from ..resilience.hooks import poke as _poke
from .replica import ReplicaDown

__all__ = ["ShardState", "Supervisor"]


class ShardState:
    """Detector states for one replica-group member."""

    OK = "ok"
    SUSPECT = "suspect"
    DEAD = "dead"
    RECOVERING = "recovering"
    PROMOTING = "promoting"
    QUIESCED = "quiesced"


class Supervisor:
    """Failure detector + failover/promotion/rebalance driver.

    Args:
        clock: the shared simulated clock.
        groups: the cluster's :class:`~repro.cluster.replication.ReplicaGroup`s.
        router: the shared :class:`~repro.cluster.partition.ShardRouter`.
        heartbeat_interval: seconds between beats per member.
        suspect_phi / dead_phi: missed-interval thresholds for the
            suspect and dead transitions.
        recovery_base / recovery_per_batch: modeled takeover time —
            snapshot load plus per-WAL-record replay.
        promote_seconds: modeled lease hand-off time charged to the
            clock per completed promotion.
        rebalance_window: seconds of load observed per rebalance check.
        rebalance_factor: hot-spot trigger, ``max_load > factor * mean``.
        rebalance_patience: consecutive hot windows before moving nodes.
        rebalance_max_fraction: at most this fraction of the hot shard's
            nodes moves per rebalance.
        rebalance_handoff_seconds: modeled quiesce window charged to the
            clock per rebalance hand-off.
        on_recovered: callback ``(shard_id, member_idx)`` after a
            respawn completes and the member has rejoined its group.
        counters: the counter table to count the control plane's
            ``cluster:*`` into (a private one when None).  Promotions and
            recoveries are counted by the group and the member they happen
            to.
    """

    #: promotion attempts delayed by ``repl.promote`` before one is
    #: forced through without consulting the site (bounds the window).
    MAX_PROMOTE_DELAYS = 2

    def __init__(
        self,
        clock,
        groups,
        router,
        heartbeat_interval: float = 5.0e-3,
        suspect_phi: float = 2.0,
        dead_phi: float = 4.0,
        recovery_base: float = 1.0e-2,
        recovery_per_batch: float = 1.0e-4,
        promote_seconds: float = 2.0e-3,
        rebalance_window: float = 0.25,
        rebalance_factor: float = 2.0,
        rebalance_patience: int = 2,
        rebalance_max_fraction: float = 0.25,
        rebalance_handoff_seconds: float = 2.0e-3,
        on_recovered=None,
        counters: Optional[Dict[str, float]] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if not 0 < suspect_phi <= dead_phi:
            raise ValueError("need 0 < suspect_phi <= dead_phi")
        self.clock = clock
        self.groups = groups
        self.router = router
        self.interval = float(heartbeat_interval)
        self.suspect_phi = float(suspect_phi)
        self.dead_phi = float(dead_phi)
        self.recovery_base = float(recovery_base)
        self.recovery_per_batch = float(recovery_per_batch)
        self.promote_seconds = float(promote_seconds)
        self.rebalance_window = float(rebalance_window)
        self.rebalance_factor = float(rebalance_factor)
        self.rebalance_patience = int(rebalance_patience)
        self.rebalance_max_fraction = float(rebalance_max_fraction)
        self.rebalance_handoff_seconds = float(rebalance_handoff_seconds)
        self.on_recovered = on_recovered
        self.counters = declare(
            counters, "cluster:beats", "cluster:beats_dropped", "cluster:suspects",
            "cluster:failovers", "cluster:promote_delays", "cluster:rebalances",
            "cluster:nodes_moved",
        )
        #: seconds from dead-declaration to rejoin, per completed failover.
        self.recovery_seconds: List[float] = []

        n = len(groups)
        self._num_shards = n
        now = clock.now()
        self.last_beat: Dict[Tuple[int, int], float] = {
            (g, m): now
            for g in range(n)
            for m in range(len(groups[g].members))
        }
        self.state: List[List[str]] = [
            [ShardState.OK] * len(groups[g].members) for g in range(n)
        ]
        self._dead_since: Dict[Tuple[int, int], float] = {}
        #: members deliberately out of service for a planned hand-off;
        #: they accrue **no** phi (satellite fix: a quiesced member must
        #: never be suspected for beats it was told not to send).
        self._quiesced: Set[Tuple[int, int]] = set()
        #: groups whose promotion attempt was delayed (repl.promote).
        self._need_promotion: Set[int] = set()
        self._promote_delay_count: Dict[int, int] = {}
        self._next_beat = now + self.interval
        self._beat_seq = 0
        # load accounting for hot-spot detection
        self._window_load = np.zeros(n, dtype=np.float64)
        self._node_touches = np.zeros(router.num_nodes, dtype=np.float64)
        self._window_end = now + self.rebalance_window
        self._hot_streak = 0

    # ---- load observation ----------------------------------------------------------

    def note_load(self, rows: Dict[int, int], nodes: np.ndarray) -> None:
        """Record one request: ``rows[shard]`` endpoint rows each shard
        handled, *nodes* the node of every one of those rows."""
        self._window_load[list(rows)] += list(rows.values())
        if len(nodes):
            self._node_touches += np.bincount(
                nodes, minlength=len(self._node_touches)
            )

    # ---- the tick ------------------------------------------------------------------

    def tick(self) -> None:
        """Run heartbeats, detection, promotions, recoveries, rebalance."""
        now = self.clock.now()
        self._heartbeats(now)
        self._detect(now)
        self._retry_promotions()
        self._complete_recoveries(now)
        self._maybe_rebalance(now)

    def _heartbeats(self, now: float) -> None:
        while now >= self._next_beat:
            t = self._next_beat
            self._next_beat += self.interval
            self._beat_seq += 1
            for g, group in enumerate(self.groups):
                for m, member in enumerate(group.members):
                    if not member.alive or (g, m) in self._quiesced:
                        continue  # dead hosts and quiesced members beat nothing
                    self.counters["cluster:beats"] += 1
                    dropped = _poke(
                        "heartbeat.drop", shard=g,
                        extra=g + self._num_shards * m + 101 * self._beat_seq,
                    )
                    if dropped:
                        self.counters["cluster:beats_dropped"] += 1
                    else:
                        self.last_beat[(g, m)] = t

    def _detect(self, now: float) -> None:
        for g, group in enumerate(self.groups):
            for m, member in enumerate(group.members):
                if member.recovering or (g, m) in self._quiesced:
                    continue
                phi = (now - self.last_beat[(g, m)]) / self.interval
                if phi >= self.dead_phi:
                    if self.state[g][m] != ShardState.DEAD:
                        self.state[g][m] = ShardState.DEAD
                        self._dead_since[(g, m)] = now
                        self._member_failover(g, m, now)
                elif phi >= self.suspect_phi:
                    if self.state[g][m] == ShardState.OK:
                        self.state[g][m] = ShardState.SUSPECT
                        self.counters["cluster:suspects"] += 1
                elif self.state[g][m] == ShardState.SUSPECT:
                    self.state[g][m] = ShardState.OK  # beat again: false alarm

    # ---- failover / promotion ------------------------------------------------------

    def force_failover(self, shard: int, member: Optional[int] = None) -> None:
        """Immediately declare dead members of *shard* (drain settlement).

        With ``member=None`` every crashed-but-undeclared member of the
        group is declared; otherwise just that member.  Used when the
        coordinator must guarantee progress — e.g. a crash observed
        directly at teardown that the heartbeat detector has not had
        enough missed beats to score yet.
        """
        group = self.groups[shard]
        now = self.clock.now()
        targets = (
            range(len(group.members)) if member is None else [int(member)]
        )
        for m in targets:
            rep = group.members[m]
            if rep.recovering or (rep.alive and member is None):
                continue
            self.state[shard][m] = ShardState.DEAD
            self._dead_since.setdefault((shard, m), now)
            self._member_failover(shard, m, now)

    def _member_failover(self, shard: int, m: int, now: float) -> None:
        """Fence a dead member, schedule its respawn, promote if needed."""
        group = self.groups[shard]
        rep = group.members[m]
        was_primary = m == group.primary_idx
        # A live member declared dead (accumulated heartbeat loss) is
        # fenced first — split-brain guard: the detector's verdict wins.
        rep.crash()
        seconds = rep.estimate_recovery_seconds(
            self.recovery_base, self.recovery_per_batch
        )
        rep.begin_recovery(ready_at=now + seconds)
        self.state[shard][m] = ShardState.RECOVERING
        self.counters["cluster:failovers"] += 1
        if was_primary and group.any_serving():
            # The dead primary leaves a serving follower: hand the lease
            # over instead of waiting out the WAL respawn (the respawned
            # ex-primary rejoins as a follower).
            self._attempt_promotion(shard)

    def _attempt_promotion(self, shard: int) -> bool:
        """One promotion attempt; may be delayed by the ``repl.promote`` site."""
        group = self.groups[shard]
        if group.serving_primary() is not None:
            self._need_promotion.discard(shard)
            return True
        delays = self._promote_delay_count.get(shard, 0)
        if delays < self.MAX_PROMOTE_DELAYS:
            delayed = _poke(
                "repl.promote", shard=shard,
                extra=shard + 1009 * delays,
            )
            if delayed:
                # The attempt stalls one tick; the group stays in
                # PROMOTING and reads fail over to followers meanwhile.
                self._promote_delay_count[shard] = delays + 1
                self._need_promotion.add(shard)
                self._mark_promoting(shard)
                self.counters["cluster:promote_delays"] += 1
                return False
        try:
            new_idx = group.promote()
        except ReplicaDown:
            # No serving candidate: the whole group is down — the
            # factor-1 path (WAL respawn of the primary) takes over.
            self._need_promotion.discard(shard)
            self._promote_delay_count.pop(shard, None)
            return False
        self.clock.advance(self.promote_seconds)
        self.state[shard][new_idx] = ShardState.OK
        self.last_beat[(shard, new_idx)] = self.clock.now()
        self._need_promotion.discard(shard)
        self._promote_delay_count.pop(shard, None)
        return True

    def _mark_promoting(self, shard: int) -> None:
        group = self.groups[shard]
        for m in range(len(group.members)):
            if self.state[shard][m] == ShardState.OK and group.serving(m):
                self.state[shard][m] = ShardState.PROMOTING

    def _retry_promotions(self) -> None:
        for shard in sorted(self._need_promotion):
            if self._attempt_promotion(shard):
                group = self.groups[shard]
                for m in range(len(group.members)):
                    if self.state[shard][m] == ShardState.PROMOTING:
                        self.state[shard][m] = ShardState.OK

    def ensure_primary(self, shard: int) -> bool:
        """Guarantee *shard* has a serving, leased primary if possible.

        Called by the coordinator's write fan-out (a commit needs a
        primary to sequence under the current lease) and by
        ``staleness_bound='strict'`` reads (read-your-commits blocks the
        gather until promotion completes).  Returns True when a serving
        primary exists on exit.
        """
        group = self.groups[shard]
        if group.serving_primary() is not None:
            return True
        if not group.any_serving():
            return False
        self._attempt_promotion(shard)
        return group.serving_primary() is not None

    def _complete_recoveries(self, now: float) -> None:
        for g, group in enumerate(self.groups):
            for m, member in enumerate(group.members):
                if member.recovering and now >= member.ready_at:
                    member.respawn()
                    self.state[g][m] = ShardState.OK
                    self.last_beat[(g, m)] = now
                    started = self._dead_since.pop((g, m), now)
                    self.recovery_seconds.append(now - started)
                    # Rejoin under the current lease and catch up from
                    # the in-order queue (re-replication: the group is
                    # back at full factor and bit-identical).
                    group.rejoin(m)
                    if group.serving_primary() is None:
                        # First member back of a fully-dead group: it
                        # must take (or retake) the lease.
                        self.ensure_primary(g)
                    if self.on_recovered is not None:
                        self.on_recovered(g, m)

    # ---- planned quiesce (rebalance hand-off) ---------------------------------------

    def quiesce(self, shard: int, member: int) -> None:
        """Take a member out of service deliberately (no phi accrual)."""
        self._quiesced.add((shard, member))
        if self.state[shard][member] in (ShardState.OK, ShardState.SUSPECT):
            self.state[shard][member] = ShardState.QUIESCED

    def resume(self, shard: int, member: int) -> None:
        """Return a quiesced member to service; its beat clock restarts
        *now* so the quiesce window can never read as missed intervals."""
        self._quiesced.discard((shard, member))
        self.last_beat[(shard, member)] = self.clock.now()
        if self.state[shard][member] == ShardState.QUIESCED:
            self.state[shard][member] = ShardState.OK

    # ---- hot-spot rebalance --------------------------------------------------------

    def _maybe_rebalance(self, now: float) -> None:
        if now < self._window_end:
            return
        self._window_end = now + self.rebalance_window
        load = self._window_load
        self._window_load = np.zeros_like(load)
        total = float(load.sum())
        if total <= 0 or len(load) < 2:
            self._hot_streak = 0
            return
        mean = total / len(load)
        hot = int(np.argmax(load))
        if load[hot] > self.rebalance_factor * mean and len(
            self.router.owned_nodes(hot)
        ) > 1:
            self._hot_streak += 1
        else:
            self._hot_streak = 0
            return
        if self._hot_streak < self.rebalance_patience:
            return
        self._hot_streak = 0
        cold = int(np.argmin(load))
        if cold == hot:
            return
        hot_group, cold_group = self.groups[hot], self.groups[cold]
        if not all(
            hot_group.serving(m) for m in range(len(hot_group.members))
        ) or not all(
            cold_group.serving(m) for m in range(len(cold_group.members))
        ):
            return  # never rebalance through a failover in progress
        owned = self.router.owned_nodes(hot)
        touches = self._node_touches[owned]
        order = owned[np.argsort(-touches, kind="stable")]
        # Move the hottest nodes carrying about half the excess load,
        # bounded so one rebalance never empties a shard.
        excess = (load[hot] - mean) / 2.0
        budget = max(1, int(len(owned) * self.rebalance_max_fraction))
        moved: List[int] = []
        carried = 0.0
        for node in order:
            if len(moved) >= budget or carried >= excess:
                break
            moved.append(int(node))
            carried += float(self._node_touches[node])
        if not moved or len(moved) >= len(owned):
            return
        nodes = np.asarray(moved, dtype=np.int64)
        # Planned hand-off: quiesce both groups (no phi accrual), drain
        # every member's queue so group members are bit-identical and no
        # parked record straddles the ownership move, hand the rows over
        # member-by-member, charge the modeled window, resume.
        for g, group in ((hot, hot_group), (cold, cold_group)):
            for m in range(len(group.members)):
                self.quiesce(g, m)
                group.drain_member(m)
        for m in range(len(hot_group.members)):
            cold_group.members[m].adopt(hot_group.members[m].release(nodes))
        self.clock.advance(self.rebalance_handoff_seconds)
        self.router.move(nodes, cold)
        for g, group in ((hot, hot_group), (cold, cold_group)):
            for m in range(len(group.members)):
                self.resume(g, m)
        self._node_touches[nodes] = 0.0
        self.counters["cluster:rebalances"] += 1
        self.counters["cluster:nodes_moved"] += len(nodes)
