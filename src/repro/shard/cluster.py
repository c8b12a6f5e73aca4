"""Sharded SI-Rep: several replication groups inside one simulator.

A :class:`ShardedCluster` assembles ``n_groups`` independent SRCA-Rep
deployments (each a full :class:`~repro.core.cluster.SIRepCluster`) on a
**shared** simulator and LAN.  Each group owns a disjoint table
partition (see :class:`~repro.shard.partition.Partitioner`) and runs the
paper's protocol unchanged within the group: writesets multicast on the
group's own bus, certification order is per-group, and the update
capacity of the whole deployment scales with the number of groups
because no replica ever sees another group's writesets.

Clients enter through the :class:`~repro.shard.router.ShardRouter`,
which keeps update transactions single-group and scatter-gathers
cross-shard read-only transactions over per-group snapshots stamped
with a group-CSN vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Generator, Iterable, Optional

from repro.core import membership
from repro.core.cluster import ClusterConfig, SIRepCluster, build_surface
from repro.durable.store import DurabilityStore
from repro.errors import PlacementError, SQLError
from repro.gcs import DiscoveryService, GroupBus
from repro.obs import sanitize
from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter
from repro.si.onecopy import OneCopyReport
from repro.sql.parser import parse_cached


@dataclass
class ShardConfig:
    """Shape of one sharded deployment: ``n_groups`` copies of one
    replication group over a table partition."""

    n_groups: int = 2
    #: what every group looks like.  Its ``seed``, network latencies,
    #: ``obs`` / ``span_trace`` / ``flight`` and ``durability``
    #: describe the ONE surface all groups share (one
    #: registry/sampler/event log, one Tracer so router hops and
    #: per-group branches stitch into a single trace, one store — replica
    #: names are globally unique, so every group's logs coexist under one
    #: directory); ``monitor`` gives each group its own streaming Def. 3
    #: check (certification order is per-group); ``replica_prefix`` is
    #: overridden with ``G<i>-R``; ``runtime`` must stay ``"sim"``.
    group: ClusterConfig = field(default_factory=ClusterConfig)
    #: "hash" (balanced, deterministic) or "explicit" (requires table_map)
    partition: str = "hash"
    table_map: Optional[dict[str, int]] = None


@dataclass
class SnapshotStamp:
    """One committed routed transaction's snapshot vector (audit log)."""

    connection_id: int
    vector: dict[int, int]
    #: group -> replica address that served the branch; monotonicity is
    #: audited per served replica (a failover may legitimately land on a
    #: replica whose commit counter trails the crashed one's)
    addresses: dict[int, str]
    cross_shard: bool
    at: float


@dataclass
class ShardedReport:
    """Per-group 1-copy-SI audits plus the cross-shard freshness audit."""

    groups: dict[str, OneCopyReport]
    freshness_violations: list[str]

    @property
    def ok(self) -> bool:
        return (
            all(report.ok for report in self.groups.values())
            and not self.freshness_violations
        )

    def __str__(self) -> str:
        parts = [
            f"{name}: {'OK' if report.ok else report.violations}"
            for name, report in self.groups.items()
        ]
        parts.append(
            "freshness: "
            + ("OK" if not self.freshness_violations else str(self.freshness_violations))
        )
        return "; ".join(parts)


class ShardGroup(SIRepCluster):
    """One replication group of a sharded deployment.  It runs on the
    deployment's surface, which the deployment reports and stops."""

    _owns_surface = False


class ShardedCluster:
    """A sharded SI-Rep deployment: groups + partitioner + router."""

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        *,
        durability: Optional[DurabilityStore] = None,
        cold_start: bool = False,
    ):
        self.config = config or ShardConfig()
        cfg = self.config
        if cfg.group.runtime != "sim":
            raise ValueError(
                f"a sharded deployment is simulator-only, not {cfg.group.runtime!r}"
            )
        self.surface = build_surface(cfg.group, durability)
        (self.sim, self.network, self.obs, self.tracer, self.flight,
         self.durable_store) = self.surface
        self.partitioner = Partitioner(
            cfg.n_groups,
            policy=cfg.partition,
            table_map=cfg.table_map,
            seed=cfg.group.seed,
        )
        self.groups: list[SIRepCluster] = [
            ShardGroup(
                replace(cfg.group, replica_prefix=f"G{index}-R"),
                surface=self.surface,
                bus=GroupBus(
                    self.sim, config=cfg.group.gcs, rng_stream=f"gcs-G{index}"
                ),
                discovery=DiscoveryService(self.sim),
                cold_start=cold_start,
            )
            for index in range(cfg.n_groups)
        ]
        self.router = ShardRouter(self)
        self._snapshot_log: list[SnapshotStamp] = []

    @classmethod
    def cold_restart(
        cls, config: ShardConfig, durability: DurabilityStore
    ) -> "ShardedCluster":
        """Rebuild every group from the shared durability store after a
        full-deployment crash (see :meth:`SIRepCluster.cold_restart`).
        Do NOT re-run ``load_schema``/``bulk_load`` — the per-replica
        genesis records replay them group by group."""
        cluster = cls(config, durability=durability, cold_start=True)
        for group in cluster.groups:
            membership.level_after_cold_restart(group)
        return cluster

    # ------------------------------------------------------------ data loading

    def load_schema(self, ddl_statements: Iterable[str]) -> None:
        """Place each CREATE statement and apply it in the owning group."""
        for sql in ddl_statements:
            statement = parse_cached(sql)
            if statement.kind == "create_table":
                group = self.partitioner.place(statement.table)
            elif statement.kind == "create_index":
                group = self.partitioner.group_of(statement.table)
            else:
                raise SQLError(f"load_schema only accepts CREATE statements: {sql!r}")
            self.groups[group].load_schema([sql])

    def bulk_load(self, table: str, rows: list[dict]) -> None:
        """Seed initial data in the owning group (placement validated)."""
        if not self.partitioner.knows(table):
            raise PlacementError(
                f"bulk load of {table!r} before its CREATE TABLE was placed"
            )
        self.groups[self.partitioner.group_of(table)].bulk_load(table, rows)

    # ----------------------------------------------------------------- clients

    def new_client_host(self, name: Optional[str] = None):
        label = name or self.network.unique_address("shard-client")
        return self.network.register(label)

    def connect(self, host) -> Generator[Any, Any, Any]:
        """Open a routed connection (convenience over ``router.connect``)."""
        connection = yield from self.router.connect(host)
        return connection

    # ------------------------------------------------------------------ faults

    def crash(self, group: int, index: int) -> None:
        """Crash one replica of one group (the group's SRCA-Rep handles it)."""
        self.groups[group].crash(index)

    def recover_replica(
        self,
        group: int,
        index: int,
        donor_index: Optional[int] = None,
        mode: Optional[str] = None,
    ):
        """Recover a crashed replica from a donor within its group."""
        return self.groups[group].recover_replica(
            index, donor_index=donor_index, mode=mode
        )

    def add_replica(self, group: int, donor_index: Optional[int] = None):
        """Elastic online join: grow one group by a replica while the
        whole sharded deployment keeps serving traffic."""
        return self.groups[group].add_replica(donor_index=donor_index)

    def alive_replicas(self) -> list:
        return [r for group in self.groups for r in group.alive_replicas()]

    # ------------------------------------------------------------------ audits

    def record_snapshot_vector(
        self,
        connection_id: int,
        vector: dict[int, int],
        addresses: dict[int, str],
        cross_shard: bool,
    ) -> None:
        """Called by the router when a routed transaction commits."""
        self._snapshot_log.append(
            SnapshotStamp(
                connection_id, dict(vector), dict(addresses), cross_shard, self.sim.now
            )
        )

    @property
    def snapshot_log(self) -> list[SnapshotStamp]:
        return list(self._snapshot_log)

    def snapshot_freshness_report(self) -> list[str]:
        """Audit the recorded snapshot vectors (NMSI-style guarantees).

        Checks, per routed transaction:

        * **validity** — each vector component is a CSN the group has
          actually produced (``<=`` the group's current max commit CSN);
        * **per-connection monotonicity** — successive transactions of
          one connection, while served by the *same* replica of a group,
          never observe an older per-group snapshot than an earlier
          transaction did (session monotonic reads; a failover may move
          the branch to a replica whose commit counter trails, so the
          high-water mark resets when the serving replica changes).

        What is deliberately *not* checked: mutual freshness between the
        components of one vector.  There is no global certification
        order across groups, so a cross-shard read-only transaction sees
        a vector of per-group-consistent — but possibly mutually stale —
        snapshots (non-monotonic snapshot isolation).
        """
        violations: list[str] = []
        max_csn = {
            g: max(node.db.csn for node in group.nodes)
            for g, group in enumerate(self.groups)
        }
        high_water: dict[tuple[int, int], tuple[Optional[str], int]] = {}
        for stamp in self._snapshot_log:
            for group, csn in stamp.vector.items():
                if csn > max_csn[group]:
                    violations.append(
                        f"conn {stamp.connection_id} at t={stamp.at:.6f}: "
                        f"group {group} snapshot csn {csn} exceeds the "
                        f"group's max commit csn {max_csn[group]}"
                    )
                key = (stamp.connection_id, group)
                address = stamp.addresses.get(group)
                seen_address, seen_csn = high_water.get(key, (None, -1))
                if address == seen_address and csn < seen_csn:
                    violations.append(
                        f"conn {stamp.connection_id} at t={stamp.at:.6f}: "
                        f"group {group} snapshot went backwards on replica "
                        f"{address!r} ({csn} after {seen_csn})"
                    )
                if address != seen_address:
                    high_water[key] = (address, csn)
                else:
                    high_water[key] = (address, max(seen_csn, csn))
        return violations

    def one_copy_report(self) -> ShardedReport:
        """Definition-3 audit per group + the cross-shard freshness audit.

        Within a group the unsharded checker applies unchanged (the
        group is a complete SI-Rep deployment over its tables); across
        groups only snapshot-vector guarantees hold, so those are
        audited separately.
        """
        return ShardedReport(
            groups={
                f"G{index}": group.one_copy_report()
                for index, group in enumerate(self.groups)
            },
            freshness_violations=self.snapshot_freshness_report(),
        )

    # ------------------------------------------------------------------- stats

    def total_commits(self) -> int:
        return sum(group.total_commits() for group in self.groups)

    def total_update_commits(self) -> int:
        return sum(
            status.update_commits
            for group in self.groups
            for status in group.statuses()
        )

    def total_certification_aborts(self) -> int:
        return sum(group.total_certification_aborts() for group in self.groups)

    def metrics(self) -> dict:
        """Operational snapshot: per-group metrics plus router counters."""
        out = {
            "now": self.sim.now,
            "commits": self.total_commits(),
            "update_commits": self.total_update_commits(),
            "certification_aborts": self.total_certification_aborts(),
            "cross_shard_readonly_commits": self.router.stats_cross_shard_readonly,
            "rejected_cross_shard_writes": self.router.stats_rejected_writes,
            "partition": {
                f"G{index}": self.partitioner.tables_of(index)
                for index in range(self.config.n_groups)
            },
            "groups": {
                f"G{index}": group.metrics()
                for index, group in enumerate(self.groups)
            },
            **self.surface.span_report(),
            **self.surface.obs_report(),
        }
        return sanitize(out)

    def stop(self) -> None:
        for group in self.groups:
            group.stop()
        self.surface.stop()
