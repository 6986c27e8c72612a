"""Fault-tolerant sharded serving on a deterministic simulated clock.

The cluster layer partitions the serving state (``Memory`` / ``Mailbox``)
across N shards — each a lease-fenced **replica group** of
``replication_factor`` members on distinct hosts, every member with its
own write-ahead log — and keeps the whole thing serving through member
crashes, stalls, and lossy RPC:

========================  ========================================================
component                 role
========================  ========================================================
:class:`ShardRouter`      node -> shard assignment (hash / temporal-locality)
:class:`ShardReplica`     one group member's state slice + private WAL + liveness
:class:`ReplicaGroup`     primary + followers, quorum log shipping, promotion
:class:`SimRpc`           lossy RPC with timeout, retry, backoff, hedging
:class:`Supervisor`       heartbeat detection, lease-fenced promotion, rebalance
:class:`ServeCluster`     coordinator mirroring the ``ServeRuntime`` surface
========================  ========================================================

All failure behavior routes through the shared ``FaultInjector`` sites
(the RPC, shard, heartbeat, replication and integrity entries of
:data:`repro.resilience.hooks.SITES`), so chaos schedules are
deterministic and the committed state after any
schedule — killing up to ``replication_factor - 1`` members per group —
is bit-identical to a clean single-runtime replay, with reads failing
over to followers instead of zero-filling (see ``tests/test_cluster.py``).
"""

from .coordinator import ClusterConfig, ServeCluster, ShardedCostModel
from .partition import ShardRouter, hash_shard, place_group_hosts
from .replica import ReplicaDown, ShardReplica, StaleLeaseError
from .replication import ReplicaGroup
from .rpc import RpcTimeout, SimRpc
from .supervisor import ShardState, Supervisor

__all__ = [
    "ClusterConfig",
    "ServeCluster",
    "ShardedCostModel",
    "ShardRouter",
    "hash_shard",
    "place_group_hosts",
    "ReplicaDown",
    "ShardReplica",
    "StaleLeaseError",
    "ReplicaGroup",
    "RpcTimeout",
    "SimRpc",
    "ShardState",
    "Supervisor",
]
