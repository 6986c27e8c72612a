"""Node-id partitioning across serving shards.

A :class:`ShardRouter` owns the node -> shard assignment the whole
cluster agrees on.  Two construction policies are supported:

* **hash** — a splitmix64 hash of the node id modulo the shard count.
  Stateless, uniform over node *counts*, and stable across runs for a
  fixed ``(seed, num_shards)`` pair.
* **temporal** — nodes are ordered by their mean event timestamp in a
  seeding stream (nodes active at similar times sit next to each other)
  and cut into contiguous runs balanced by per-node event *weight*.
  Requests gather temporally-close working sets, so co-active nodes on
  one shard means fewer shards touched per request.  The greedy cut
  guarantees every shard's weight is at most ``total/N + w_max``, i.e.
  within 2x of the makespan lower bound ``max(total/N, w_max)`` even on
  heavily skewed (zipf) event distributions.

After construction the assignment changes **only** through explicit
:meth:`move` calls (rebalance boundaries); every move bumps
:attr:`version` so replicas and durable snapshots can stamp which
assignment epoch they were written under.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.kernels.dedup import group_spans
from ..splitmix import splitmix64

__all__ = ["hash_shard", "place_group_hosts", "ShardRouter", "SubBatches"]

_MASK64 = (1 << 64) - 1


class SubBatches(dict):
    """``shard -> sub-batch`` of one split, every sub-batch a view of one copy.

    :attr:`events` is that copy — the split batch's events in owner order,
    an event on two shards once in each shard's run — and is read-only, so
    a sub-batch parked for redelivery holds the same bytes for as long as
    it is kept.  :attr:`spans` maps each shard to its run ``(lo, hi)`` of
    :attr:`events`; shards ascend.
    """

    def __init__(self, events, spans: Dict[int, Tuple[int, int]]):
        super().__init__((s, events.span(lo, hi)) for s, (lo, hi) in spans.items())
        self.events = events
        self.spans = spans


def hash_shard(nodes: np.ndarray, num_shards: int, seed: int = 0) -> np.ndarray:
    """Stateless splitmix64 shard assignment for *nodes*.

    A pure function of ``(node, seed, num_shards)`` — two routers built
    with the same parameters agree on every node, on any machine.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    h = splitmix64(nodes.astype(np.uint64) ^ np.uint64(seed & _MASK64))
    return (h % np.uint64(num_shards)).astype(np.int64)


def place_group_hosts(num_shards: int, replication_factor: int) -> "list":
    """Host placement for every shard's replica group.

    Returns ``hosts[shard][member]`` — the simulated host each group
    member lives on — under the anti-affinity constraint that no two
    members of one group share a host (a single host loss must never
    take out a whole group, or replication buys nothing).  There are
    ``max(num_shards, replication_factor)`` hosts, so the constraint
    always holds, and placement is the deterministic diagonal
    ``(shard + member) % hosts``, which also spreads each host's load
    across primary and follower roles.
    """
    num_shards = int(num_shards)
    replication_factor = int(replication_factor)
    if num_shards < 1 or replication_factor < 1:
        raise ValueError("num_shards and replication_factor must be >= 1")
    hosts = max(num_shards, replication_factor)
    placement = [
        [(shard + member) % hosts for member in range(replication_factor)]
        for shard in range(num_shards)
    ]
    for shard, group in enumerate(placement):
        if len(set(group)) != len(group):  # pragma: no cover - guarded above
            raise AssertionError(f"group {shard} placement collides: {group}")
    return placement


class ShardRouter:
    """The cluster-wide node -> shard assignment table.

    Args:
        assign: int64 ``(num_nodes,)`` shard id per node.
        num_shards: shard count (every assignment must be in range).
        policy: label of the policy that built the table (diagnostic).
    """

    def __init__(self, assign: np.ndarray, num_shards: int, policy: str = "hash"):
        assign = np.asarray(assign, dtype=np.int64)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if len(assign) and (assign.min() < 0 or assign.max() >= num_shards):
            raise ValueError(
                f"assignment references shards outside [0, {num_shards})"
            )
        self.assign = assign
        self.num_shards = int(num_shards)
        self.policy = policy
        #: bumped on every :meth:`move`; snapshot/WAL records stamp it.
        self.version = 0
        #: ``(version, moved_nodes, src, dst)`` history of rebalances.
        self.moves: list = []

    # ---- constructors -------------------------------------------------------------

    @classmethod
    def hash(cls, num_nodes: int, num_shards: int, seed: int = 0) -> "ShardRouter":
        """Uniform stateless hash partitioning."""
        return cls(
            hash_shard(np.arange(num_nodes), num_shards, seed=seed),
            num_shards, policy="hash",
        )

    @classmethod
    def temporal(cls, src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
                 num_nodes: int, num_shards: int) -> "ShardRouter":
        """Temporal-locality partitioning from a seeding event stream.

        Nodes are keyed by the mean timestamp of the events touching them
        (inactive nodes inherit the stream midpoint), sorted by that key
        (node id tie-break keeps the order total), then cut into
        ``num_shards`` contiguous runs by greedy event-weight balancing.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        weight = np.zeros(num_nodes, dtype=np.float64)
        tsum = np.zeros(num_nodes, dtype=np.float64)
        for ends in (src, dst):
            ok = (ends >= 0) & (ends < num_nodes)
            weight += np.bincount(ends[ok], minlength=num_nodes)
            np.add.at(tsum, ends[ok], ts[ok])
        mid = float(ts.mean()) if len(ts) else 0.0
        key = np.where(weight > 0, tsum / np.maximum(weight, 1.0), mid)
        order = np.lexsort((np.arange(num_nodes), key))
        assign = np.empty(num_nodes, dtype=np.int64)
        # Greedy contiguous cuts: each shard takes nodes until it reaches
        # the remaining-average weight, so no shard exceeds
        # total/num_shards + max_single_weight (the 2x-of-ideal bound).
        w = np.maximum(weight[order], 1e-12)  # inactive nodes count a little
        remaining = float(w.sum())
        i = 0
        for shard in range(num_shards):
            left = num_shards - shard
            if shard == num_shards - 1:
                j = num_nodes
            else:
                target = remaining / left
                acc = 0.0
                j = i
                # leave at least one node per remaining shard
                hard_stop = num_nodes - (left - 1)
                while j < hard_stop and (acc < target or j == i):
                    acc += w[j]
                    j += 1
            assign[order[i:j]] = shard
            remaining -= float(w[i:j].sum())
            i = j
        return cls(assign, num_shards, policy="temporal")

    @classmethod
    def build(cls, policy: str, num_nodes: int, num_shards: int, seed: int = 0,
              stream=None) -> "ShardRouter":
        """Policy-name dispatch used by the CLI and the cluster config."""
        if policy == "hash":
            return cls.hash(num_nodes, num_shards, seed=seed)
        if policy == "temporal":
            if stream is None:
                raise ValueError(
                    "temporal partitioning needs a seeding stream "
                    "(src/dst/ts event arrays)"
                )
            return cls.temporal(stream.src, stream.dst, stream.ts,
                                num_nodes, num_shards)
        raise ValueError(f"unknown partition policy {policy!r} "
                         "(expected 'hash' or 'temporal')")

    # ---- queries ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.assign)

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        """Shard id per node (vectorized table lookup)."""
        return self.assign[np.asarray(nodes, dtype=np.int64)]

    def owned_nodes(self, shard: int) -> np.ndarray:
        """Sorted global node ids assigned to *shard*."""
        return np.flatnonzero(self.assign == shard).astype(np.int64)

    def counts(self) -> np.ndarray:
        """Nodes per shard."""
        return np.bincount(self.assign, minlength=self.num_shards)

    def endpoint_shards(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """Owning shard of every ``src`` and ``dst`` (``-1``: out of range)."""
        def owner(nodes):
            ok = (nodes >= 0) & (nodes < self.num_nodes)
            return np.where(ok, self.assign.take(nodes, mode="clip"), -1)

        return owner(batch.src), owner(batch.dst)

    def split_batch(self, batch, ends=None) -> SubBatches:
        """Per-shard sub-batches of the events touching each shard.

        An event whose endpoints live on two shards appears in both
        sub-batches; each replica applies only the endpoint rows it owns,
        so nothing is double-applied.  *ends* is ``endpoint_shards(batch)``
        when the caller already has it; keys ascend by shard.  Each
        sub-batch is a read-only view of one owner-ordered copy of the
        events (:class:`SubBatches`).
        """
        src_shard, dst_shard = ends or self.endpoint_shards(batch)
        # One stable partition of (shard, event) pairs instead of a mask
        # per shard; an event on two shards contributes a pair to each.
        cross = np.flatnonzero(dst_shard != src_shard)
        shard = np.concatenate([src_shard, dst_shard[cross]])
        event = np.concatenate([np.arange(len(src_shard)), cross])
        order = np.lexsort((event, shard))
        shards, starts, stops = group_spans(shard[order])
        # An out-of-range endpoint (shard -1) sorts first and goes nowhere.
        skip = 1 if shards and shards[0] < 0 else 0
        cut = stops[0] if skip else 0
        events = batch.take(event[order[cut:]]).freeze()
        return SubBatches(events, {s: (a - cut, b - cut) for s, a, b in
                                   zip(shards[skip:], starts[skip:], stops[skip:])})

    # ---- rebalance ----------------------------------------------------------------

    def move(self, nodes: np.ndarray, dst_shard: int) -> int:
        """Reassign *nodes* to *dst_shard*; returns the new version.

        The only mutation path: outside of ``move`` the assignment is
        immutable, which is what makes routing deterministic between
        rebalance boundaries.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if not 0 <= dst_shard < self.num_shards:
            raise ValueError(f"destination shard {dst_shard} out of range")
        if len(nodes) == 0:
            return self.version
        src_shards = np.unique(self.assign[nodes])
        self.assign[nodes] = dst_shard
        self.version += 1
        self.moves.append((self.version, nodes.copy(),
                           [int(s) for s in src_shards], int(dst_shard)))
        return self.version

    def __repr__(self) -> str:
        return (f"ShardRouter(policy={self.policy!r}, shards={self.num_shards}, "
                f"nodes={self.num_nodes}, version={self.version})")
