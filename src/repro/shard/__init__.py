"""Sharded SI-Rep: partial replication groups + a cross-shard router.

The paper's SI-Rep replicates every table at every replica, so cluster
update capacity is capped by one certification order.  This package
scales past that by assembling several SI-Rep replication groups inside
one simulator, each owning a disjoint table partition:

* :class:`Partitioner` — table -> group placement (hash / explicit).
* :class:`ShardRouter` / :class:`RouterConnection` — the client entry
  point: single-group update transactions, cross-shard read-only
  scatter-gather with a per-group snapshot-CSN vector, and rejection of
  multi-group updates (:class:`repro.errors.CrossShardWriteError`).
* :class:`ShardedCluster` — the orchestrator mirroring
  :class:`~repro.core.SIRepCluster`'s API, with per-group 1-copy-SI
  audits plus a cross-shard snapshot-freshness audit.

Closed-loop workload clients enter through the router:
``ClientPool(cluster, ..., driver=cluster.router)``.
"""

from repro.shard.cluster import ShardConfig, ShardedCluster, ShardedReport, SnapshotStamp
from repro.shard.partition import Partitioner
from repro.shard.router import RouterConnection, ShardRouter, referenced_tables

__all__ = [
    "Partitioner",
    "ShardRouter",
    "RouterConnection",
    "ShardConfig",
    "ShardedCluster",
    "ShardedReport",
    "SnapshotStamp",
    "referenced_tables",
]
