"""Full-system assembly: replicas + middleware + GCS + network + clients.

:class:`SIRepCluster` wires everything Fig. 3(c) shows: one middleware
replica per database replica, a group communication bus between them, a
discovery service, and a LAN for JDBC clients.  Its membership actions
(crash, recovery, joins) live in :mod:`repro.core.membership` and its
operator's report (metrics, gauges, audits) in :mod:`repro.core.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, NamedTuple, Optional

from repro.core import membership, report
from repro.core.replica import ReplicaNode
from repro.core.srca_rep import MiddlewareReplica
from repro.durable.log import LogRecord
from repro.durable.store import DurabilityConfig, DurabilityStore
from repro.durable.watermark import StabilityTracker
from repro.errors import CatalogError, IntegrityError, InvalidTransactionState
from repro.gcs import DiscoveryService, GcsConfig, GroupBus
from repro.net import LatencyModel, Network
from repro.obs import Observability, Tracer
from repro.reader import CertifiedFeed, ReaderConfig, ReadReplica
from repro.sim import Resource, Simulator
from repro.storage import Database
from repro.storage.engine import CostModel, collector_paused

if TYPE_CHECKING:
    from repro.obs.flight import FlightRecorder


@dataclass
class ClusterConfig:
    """Shape of one simulated SI-Rep deployment."""

    n_replicas: int = 3
    #: True = SRCA-Rep (1-copy-SI); False = SRCA-Opt (adjustments 1+2)
    hole_sync: bool = True
    #: amortise the commit-time fsync-equivalent over runs of entries
    #: committing together at a replica (see GroupCommitLog)
    group_commit: bool = False
    #: SCAR-style abort salvage: refresh a would-abort writeset's cert
    #: when every conflicting key was written blindly (never read) and
    #: its dependent readset is unchanged — first-committer-wins stays in
    #: force for read-modify-write keys.  Opt-in; all replicas share it.
    #: It also turns on blind-write deferral (gated at a to-commit queue
    #: depth of 16) and commit pipelining (see ReplicaManager).
    salvage: bool = False
    seed: int = 0
    gcs: GcsConfig = field(default_factory=GcsConfig)
    #: constants, not knobs: no deployment sets them (tests override
    #: them on the class)
    net_base_latency: ClassVar[float] = 0.0002
    net_jitter: ClassVar[float] = 0.0001
    #: replica index -> CostModel (None = zero-cost, pure correctness);
    #: the index keeps heterogeneous replicas expressible
    cost_model: Optional[Callable[[int], CostModel]] = None
    #: create a disk resource per replica (I/O-bound workloads, Fig. 6)
    with_disk: bool = False
    cpu_servers: int = 1
    #: attach the repro.obs surface: metrics registry + per-replica gauge
    #: sampler + protocol event log (monitoring never perturbs the sim)
    obs: bool = False
    #: sampler cadence in simulated seconds (only meaningful with obs)
    sampler_interval: float = 0.25
    #: attach a causal span Tracer (repro.obs.trace): every transaction
    #: yields a span tree across replicas, exportable as JSONL or Chrome
    #: trace-event JSON.  Read-only instrumentation — a traced run is
    #: event-for-event identical to an untraced one.
    span_trace: bool = False
    #: run the online 1-copy-SI monitor (repro.obs.monitor): a weak-timer
    #: daemon streaming the Def. 3 conflict-graph check over the live
    #: commit/begin histories, flagging violations at the sim time they
    #: become observable
    monitor: bool = False
    #: attach a crash flight recorder (repro.obs.flight): a bounded ring
    #: of recent spans/events snapshotted on crash, failed audit, or
    #: monitor violation
    flight: bool = False
    #: directory flight-recorder snapshots are dumped to (None = keep
    #: in memory only, retrievable via ``cluster.flight.snapshots``)
    flight_dir: Optional[str] = None
    #: §8 load balancing: per-replica session cap (None = unbounded);
    #: a replica at its cap declines discovery until a session closes.
    #: A constant like the two above
    max_sessions: ClassVar[Optional[int]] = None
    #: replica names are ``f"{replica_prefix}{index}"``; a sharded
    #: deployment (``ShardConfig.group``) overrides this per group
    #: (``"G1-R"``) so hosts, GCS members, and gids stay unique on the
    #: shared network.
    #: Must not contain ``"."`` or ``":"`` (reserved by the gid format).
    replica_prefix: str = "R"
    #: attach the durability subsystem (repro.durable) when set:
    #: per-replica writeset logs + checkpoints, the cluster stability
    #: watermark, and delta catch-up recovery as the default recovery
    #: mode.  ``DurabilityConfig()`` keeps the logs in memory.
    durability: Optional[DurabilityConfig] = None
    #: read-scaling tier (repro.reader): lazy read-only replicas created
    #: at bootstrap, named ``f"{replica_prefix}r{i}"`` — subscribed to
    #: the certified feed, never group members
    read_replicas: int = 0
    #: read-tier knobs: staleness bound, fan-out delay, admission caps
    #: (None = defaults)
    reader: Optional[ReaderConfig] = None
    #: execution backend: ``"sim"`` (discrete-event simulator, virtual
    #: time) or ``"wall"`` (WallRuntime: real timers, TCP sockets for
    #: client and GCS traffic, fsync-backed durable logs).  See
    #: :mod:`repro.runtime.api`.
    runtime: str = "sim"


class Surface(NamedTuple):
    """What a deployment has exactly one of, however many replication
    groups run on it: the clock, the LAN, the monitoring surface, the
    span tracer, the flight recorder and the durability store.  Its
    owner (a standalone cluster, or a sharded deployment for all its
    groups) reports it and stops it."""

    sim: Any
    network: Any
    obs: Optional[Observability]
    tracer: Optional[Tracer]
    flight: Optional[FlightRecorder]
    durability: Optional[DurabilityStore]

    def span_report(self) -> dict:
        """The owner's ``metrics()`` entry for the span tracer."""
        tracer = self.tracer
        return {} if tracer is None else {"span_trace": {
            "started": tracer.started, "finished": tracer.finished_count,
            "open": len(tracer.open_spans()),
        }}

    def obs_report(self) -> dict:
        """The owner's ``metrics()`` entry for the monitoring surface (of
        every group: replica prefixes tell their gauges apart)."""
        return {} if self.obs is None else {"obs": self.obs.snapshot()}

    def stop(self) -> None:
        """Close the spans still open and, on the wall runtime, release
        the sockets, timers and loop, so repeated runs never leak."""
        if self.tracer is not None:
            self.tracer.close_open(status="shutdown")
        if getattr(self.sim, "clock", "sim") == "wall":
            self.sim.stop()


def build_surface(
    cfg: ClusterConfig, durability: Optional[DurabilityStore] = None
) -> Surface:
    """Build the :class:`Surface` ``cfg`` asks for.  Pass an external
    ``durability`` store to make durable state outlive the deployment
    (cold restart)."""
    from repro.runtime.api import make_runtime

    sim = make_runtime(cfg.runtime, seed=cfg.seed)
    if sim.clock == "wall":
        from repro.runtime import TcpNetwork

        network = TcpNetwork(sim)
    else:
        network = Network(
            sim,
            latency=LatencyModel(base=cfg.net_base_latency, jitter=cfg.net_jitter),
        )
    obs = (
        Observability(sim, sampler_interval=cfg.sampler_interval)
        if cfg.obs
        else None
    )
    tracer = Tracer(sim) if cfg.span_trace else None
    flight = None
    if cfg.flight:
        # imported here, not with the package: ``python -m
        # repro.obs.flight`` imports ``repro`` before it runs the module
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(
            sim,
            tracer=tracer,
            events=obs.events if obs is not None else None,
            directory=cfg.flight_dir,
        )
    if durability is None and cfg.durability is not None:
        durability = DurabilityStore(cfg.durability)
    return Surface(sim, network, obs, tracer, flight, durability)


def build_node(
    sim: Simulator,
    cfg: ClusterConfig,
    name: str,
    cost_index: int,
    suffix: str = "",
    with_disk: bool = False,
) -> ReplicaNode:
    """One engine with its CPU (and disk) resources; ``cost_index``
    picks its model from the per-index cost-model factory."""
    cpu = Resource(sim, f"{name}.cpu{suffix}", servers=cfg.cpu_servers)
    disk = Resource(sim, f"{name}.disk{suffix}") if with_disk else None
    cost_model = cfg.cost_model(cost_index) if cfg.cost_model else None
    db = Database(
        sim,
        name=name,
        conflict_detection="locking",
        cost_model=cost_model,
        cpu=cpu if cost_model else None,
        disk=disk,
    )
    return ReplicaNode(name=name, db=db, cpu=cpu, disk=disk)


def pack_load(dbs: list[Database], table: str, rows: Iterable[dict]) -> list[tuple]:
    """Validate and pack a bulk load of ``table`` once for all of
    ``dbs``: the row tuples every engine then stores and shares.

    Everything that would stop an engine's install is checked first,
    so a bad load raises before any engine holds a row of it: a schema
    that differs between engines, an engine past its first commit, a
    row the schema rejects, and a key that repeats within ``rows`` or
    is already stored."""
    tables = [db.catalog.table(table) for db in dbs]
    schema = tables[0].schema
    for db, stored in zip(dbs, tables):
        if stored.schema != schema:
            raise CatalogError(f"{db.name} defines {table!r} unlike {dbs[0].name}")
        if db.csn != 0:
            raise InvalidTransactionState("bulk_load only before first commit")
    packed = list(map(schema.validate_row, rows))
    pk_of = itemgetter(schema.pk_position)
    keys = set(map(pk_of, packed))
    if len(keys) < len(packed):
        seen: set = set()
        # the first key met twice (``seen.add`` returns None)
        pk = next(pk for pk in map(pk_of, packed) if pk in seen or seen.add(pk))
        raise IntegrityError(f"duplicate bulk key {pk!r} in {table!r}")
    for stored in tables:
        if not keys.isdisjoint(stored.rows):
            pk = next(pk for pk in stored.rows if pk in keys)
            raise IntegrityError(f"duplicate bulk key {pk!r} in {table!r}")
    return packed


class Comparator:
    """Base of the §6 comparator systems (centralized, [20],
    Postgres-R(SI)-style, primary/backup): the same world as
    :class:`SIRepCluster`, built from the same :class:`ClusterConfig`.

    The clock and LAN come from :func:`build_surface`, the bus is a
    :class:`GroupBus` over ``config.gcs``, and every engine comes from
    :func:`build_node`, indexed into ``config.cost_model`` in creation
    order.  A comparator reads ``n_replicas``, ``seed``, ``gcs``,
    ``cost_model``, ``with_disk`` and ``cpu_servers``; the SI-Rep
    fields do not apply to it.  It runs on the simulator only.
    """

    #: the system's name in a measured load point
    label = ""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = cfg = config or ClusterConfig()
        if cfg.runtime != "sim":
            raise ValueError(
                f"{type(self).__name__} is simulator-only, not {cfg.runtime!r}"
            )
        surface = build_surface(cfg)
        self.sim, self.network = surface.sim, surface.network
        self.bus = GroupBus(self.sim, config=cfg.gcs)
        self.discovery = DiscoveryService(self.sim)
        #: every engine, in cost-model index order
        self.nodes: list[ReplicaNode] = []

    def _node(self, name: str) -> ReplicaNode:
        node = build_node(
            self.sim, self.config, name, len(self.nodes),
            with_disk=self.config.with_disk,
        )
        self.nodes.append(node)
        return node

    def load_schema(self, ddl_statements: Iterable[str]) -> None:
        for sql in ddl_statements:
            for node in self.nodes:
                node.db.run_ddl(sql)

    def bulk_load(self, table: str, rows: list[dict]) -> None:
        """Seed identical initial data on every engine: validated once,
        and every engine stores the same row tuples."""
        dbs = [node.db for node in self.nodes]
        with collector_paused():
            packed = pack_load(dbs, table, rows)
            for db in dbs:
                db.bulk_install(table, packed)

    def new_client_host(self, name: Optional[str] = None):
        return self.network.register(name or self.network.unique_address("client"))


class SIRepCluster:
    """A running SI-Rep deployment on one runtime (Fig. 3(c)).

    This class builds it: its :class:`Surface` (built from the config
    unless given, say with a durability store that outlives it), the
    GCS bus, discovery, the replicas and readers.  Membership actions
    (:mod:`repro.core.membership`) and the operator's report
    (:mod:`repro.core.report`) are module functions bound here.  A
    sharded deployment passes every group one shared ``surface`` and a
    ``bus``/``discovery`` of its own.
    """

    #: whether ``metrics()`` reports the surface and ``stop()`` stops
    #: it; a group of a sharded deployment leaves both to its owner
    _owns_surface = True

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        surface: Optional[Surface] = None,
        bus: Optional[GroupBus] = None,
        discovery: Optional[DiscoveryService] = None,
        cold_start: bool = False,
    ):
        self.config = cfg = config or ClusterConfig()
        if "." in cfg.replica_prefix or ":" in cfg.replica_prefix:
            raise ValueError(
                f"replica_prefix {cfg.replica_prefix!r} may not contain '.' or ':'"
            )
        if cfg.runtime not in ("sim", "wall"):
            raise ValueError(f"unknown runtime {cfg.runtime!r} ('sim' or 'wall')")
        self.surface = surface or build_surface(cfg)
        (self.sim, self.network, self.obs, self.tracer, self.flight,
         self.durable_store) = self.surface
        #: which clock this deployment runs on ("sim" | "wall"); tags
        #: metrics and bench envelopes so the two are never conflated
        self.clock = getattr(self.sim, "clock", "sim")
        if bus is not None:
            self.bus = bus
        elif self.clock == "wall":
            from repro.runtime import TcpGroupBus

            self.bus = TcpGroupBus(self.sim, config=cfg.gcs, network=self.network)
        else:
            self.bus = GroupBus(self.sim, config=cfg.gcs)
        self.discovery = (
            discovery if discovery is not None else DiscoveryService(self.sim)
        )
        self._cold_start = cold_start
        self.stability: Optional[StabilityTracker] = None
        if self.durable_store is not None:
            self.stability = StabilityTracker()
            self.bus.stability = self.stability
        # the contention estimate, the bus gauges and ``self.monitor``
        report.attach(self)
        self.replicas: list[MiddlewareReplica] = []
        #: read tier: the certified-stream fan-out and the lazy replicas.
        #: The feed always exists (publishing with no subscribers is a
        #: pure bookkeeping no-op — it schedules nothing, so a run
        #: without readers is event-identical to one predating the tier)
        self.reader_config = cfg.reader or ReaderConfig()
        self.feed = CertifiedFeed(
            self.sim, self._feed_floor, fanout_delay=self.reader_config.fanout_delay
        )
        self.readers: list[ReadReplica] = []
        for index in range(cfg.n_replicas):
            replica = self._spawn_replica(index, f"{cfg.replica_prefix}{index}")
            # cold restart admits everyone once leveling is done
            if not cold_start:
                membership.admit(self, replica)
        for _ in range(cfg.read_replicas):
            reader = self._spawn_reader()
            # cold restart watches after leveling, once the covered set is known
            if not cold_start:
                membership.watch_reader(self, reader)

    def _spawn_replica(
        self,
        index: int,
        name: str,
        incarnation: int = 0,
        recover_from: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> MiddlewareReplica:
        """Build and register one middleware/DB pair (fresh, recovering,
        or joining) at ``index``."""
        cfg = self.config
        suffix = "" if incarnation == 0 else f"#{incarnation}"
        node = build_node(self.sim, cfg, name, index, suffix, with_disk=cfg.with_disk)
        member = self.bus.join(name)
        # The network address IS the replica name, so view changes and
        # driver-side crash observations speak about the same identifier.
        host = self.network.register(name)
        store = self.durable_store
        durable = store.replica(name) if store is not None else None
        replica = MiddlewareReplica(
            self.sim,
            name=name,
            node=node,
            member=member,
            host=host,
            hole_sync=cfg.hole_sync,
            group_commit=cfg.group_commit,
            discovery=self.discovery,
            incarnation=incarnation,
            recover_from=recover_from,
            max_sessions=cfg.max_sessions,
            obs=self.obs,
            durable=durable,
            recovery_mode=mode,
            cold_start=self._cold_start and recover_from is None,
            on_recovered=self._on_replica_recovered,
            feed=self.feed,
            salvage=cfg.salvage,
            tracer=self.tracer,
        )
        if index < len(self.replicas):
            self.replicas[index] = replica
        else:
            self.replicas.append(replica)
        report.register_replica_gauges(self, replica)
        return replica

    @property
    def nodes(self) -> list[ReplicaNode]:
        """Every replica's engine, in replica order."""
        return [replica.node for replica in self.replicas]

    def _spawn_reader(self, from_seq: int = 0) -> ReadReplica:
        """Build and register the next lazy read replica: its own engine
        + cpu + host, a feed subscription — but no group membership or
        durable log."""
        index = len(self.readers)
        name = f"{self.config.replica_prefix}r{index}"
        # readers index the cost-model factory after the voting replicas
        node = build_node(self.sim, self.config, name, self.config.n_replicas + index)
        host = self.network.register(name)
        reader = ReadReplica(
            self.sim,
            name=name,
            node=node,
            host=host,
            feed=self.feed,
            config=self.reader_config,
            discovery=self.discovery,
            obs=self.obs,
            from_seq=from_seq,
            tracer=self.tracer,
        )
        self.readers.append(reader)
        report.register_reader_gauges(self, reader)
        return reader

    def _feed_floor(self) -> int:
        """The lowest position a reader can join from: the lowest live
        full replica's ``feed_seq``.  Runs on every feed publish, so it
        reads the attribute, not the status record."""
        return min((r.validation.feed_seq for r in self.replicas if r.alive), default=0)

    # ------------------------------------------------------------ data loading

    def load_schema(self, ddl_statements: Iterable[str]) -> None:
        """Apply CREATE statements identically on every replica.

        With durability on, each statement also becomes a genesis log
        record so the log is replayable from sequence 1 (cold restart
        rebuilds the schema before it replays any writeset); a replica
        writes and forces a call's records together.
        """
        statements = list(ddl_statements)
        for replica in self.replicas:
            for sql in statements:
                replica.db.run_ddl(sql)
            if replica.log is not None:
                replica.log.genesis(*(partial(LogRecord.ddl, sql=sql) for sql in statements))
        for reader in self.readers:
            # genesis never rides the feed: readers get it directly
            for sql in statements:
                reader.db.run_ddl(sql)

    def bulk_load(self, table: str, rows: list[dict]) -> None:
        """Seed identical initial data on every replica (csn-0 versions).

        The rows are validated and packed once (:func:`pack_load`), and
        every replica and reader stores the same tuples; a load that
        fails leaves every engine and log as it was."""
        # one record for every replica's log: they all append it at the
        # same seq, so its row copy and JSON text are built once
        genesis = cache(partial(LogRecord.load, table=table, rows=rows))
        with collector_paused():
            engines = [node.db for node in (*self.replicas, *self.readers)]
            packed = pack_load(engines, table, rows)
            for replica in self.replicas:
                replica.db.bulk_install(table, packed)
                if replica.log is not None:
                    replica.log.genesis(genesis)
            for reader in self.readers:
                reader.db.bulk_install(table, packed)

    new_client_host = Comparator.new_client_host

    # ------------------------------------------------- membership (§5.4, §8)

    crash = membership.crash
    alive_replicas = membership.alive_replicas
    recover_replica = membership.recover_replica
    add_replica = membership.add_replica
    _on_replica_recovered = membership.on_replica_recovered
    add_reader = membership.add_reader
    crash_reader = membership.crash_reader
    remove_reader = membership.remove_reader
    alive_readers = membership.alive_readers

    @classmethod
    def cold_restart(
        cls, config: ClusterConfig, durability: DurabilityStore, **kwargs
    ) -> "SIRepCluster":
        """Rebuild a whole cluster from durable logs after every replica
        stopped (full-cluster crash).

        Each replica replays its own checkpoint + log; replicas whose
        log ends early (their tail died with them) catch up from the
        longest log before traffic starts, and a replica whose own
        state cannot replay installs that replica's full state.  Do NOT
        re-run ``load_schema``/``bulk_load`` — genesis records replay
        them.  Raises :class:`~repro.errors.ReproError` when no replica
        can replay.
        """
        cluster = cls(
            config, surface=build_surface(config, durability), cold_start=True, **kwargs
        )
        membership.level_after_cold_restart(cluster)
        return cluster

    # ---------------------------------------------------------------- report

    one_copy_report = report.one_copy_report
    contention_signal = report.contention_signal
    statuses = report.statuses
    total_commits = report.total_commits
    total_certification_aborts = report.total_certification_aborts
    hole_wait_fraction = report.hole_wait_fraction
    metrics = report.metrics

    def stop(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()
        for replica in self.replicas:
            if replica.alive:
                replica.crash()
            if replica.wslog is not None:
                replica.wslog.close()
        for reader in self.readers:
            if reader.alive:
                reader.crash()
        if self.obs is not None:
            # on a shared registry too: the names carry this group's
            # replica prefix, so only this group's gauges go
            for member in (*self.replicas, *self.readers):
                self.obs.registry.unregister_prefix(f"{member.name}.")
        if self._owns_surface:
            self.surface.stop()
