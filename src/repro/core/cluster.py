"""Full-system assembly: replicas + middleware + GCS + network + clients.

:class:`SIRepCluster` wires everything Fig. 3(c) shows: one middleware
replica per database replica, a group communication bus between them, a
discovery service, and a LAN for JDBC clients.  It also provides crash
injection and the recorded-schedule 1-copy-SI audit used by tests and the
consistency example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, NamedTuple, Optional

from repro.core.protocol import ReplicaStatus
from repro.core.replica import ReplicaNode
from repro.core.srca_rep import MiddlewareReplica
from repro.durable.log import LogRecord
from repro.durable.store import DurabilityConfig, DurabilityStore
from repro.durable.watermark import StabilityTracker
from repro.gcs import DiscoveryService, GcsConfig, GroupBus
from repro.net import LatencyModel, Network
from repro.obs import Observability, OneCopyMonitor, Tracer, sanitize
from repro.reader import CertifiedFeed, ReaderConfig, ReadReplica
from repro.si.onecopy import KeyedAudit, OneCopyReport
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
    span tracer, the flight recorder and the durability store.  The
    field names are :class:`SIRepCluster`'s keyword names, so a sharded
    deployment hands its surface to every group as ``**_asdict()``."""

    sim: Any
    network: Any
    obs: Optional[Observability]
    tracer: Optional[Tracer]
    flight: Optional[FlightRecorder]
    durability: Optional[DurabilityStore]


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
        for node in self.nodes:
            node.db.bulk_load(table, rows)

    def new_client_host(self, name: Optional[str] = None):
        return self.network.register(name or self.network.unique_address("client"))


#: the per-replica ``metrics()`` keys, in order: each is the
#: :class:`ReplicaStatus` field of that name, except ``db_versions``,
#: which walks the engine and so is not in the record
REPLICA_KEYS = (
    "alive", "recovered", "active_sessions", "update_commits",
    "readonly_commits", "certification_aborts", "salvaged", "salvage_rejects",
    "certifier_window", "certifier_gc_floor", "certifier_gc_collected",
    "certifier_floor_aborts", "tocommit_queue_len", "tocommit_appended",
    "tocommit_batches", "remote_apply_retries", "group_commit_flushes",
    "group_commit_mean_size", "hole_wait_fraction", "db_commits", "db_aborts",
    "db_versions", "cpu_utilization",
)
#: the keys a replica that logs adds
LOG_KEYS = (
    "log_tip_seq", "log_durable_seq", "log_depth", "log_bytes", "log_flushes",
    "log_fsyncs", "log_file_opens", "checkpoints",
)
#: per-replica gauge -> how it reads the status record, in registration
#: order; most sample the field of their own name
REPLICA_GAUGES = {
    "tocommit_depth": attrgetter("tocommit_queue_len"),
    **{
        name: attrgetter(name)
        for name in (
            "holes", "oldest_hole_age", "active_sessions", "cpu_utilization",
            "certifier_window", "certifier_gc_floor", "certifier_gc_collected",
            "group_commit_mean_size",
        )
    },
}
#: the gauges a replica that logs adds
LOG_GAUGES = {
    "log_depth": attrgetter("log_depth"),
    "log_durable_seq": attrgetter("log_durable_seq"),
    "log_tail": lambda status: status.log_tip_seq - status.log_durable_seq,
}


class SIRepCluster:
    """A running SI-Rep deployment on one runtime.

    By default the cluster owns its whole world: :func:`build_surface`
    gives it the runtime, the LAN and the monitoring surface, and it
    creates the GCS bus and the discovery service.  A sharded deployment
    (:class:`repro.shard.ShardedCluster`) instead builds one
    :class:`Surface` and passes it (``sim`` ... ``durability``) to every
    group together with per-group ``bus``/``discovery`` instances, so
    several replication groups coexist on one clock and one LAN.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        bus: Optional[GroupBus] = None,
        discovery: Optional[DiscoveryService] = None,
        obs: Optional[Observability] = None,
        tracer: Optional[Tracer] = None,
        flight: Optional[FlightRecorder] = None,
        durability: Optional[DurabilityStore] = None,
        cold_start: bool = False,
    ):
        self.config = config or ClusterConfig()
        cfg = self.config
        if "." in cfg.replica_prefix or ":" in cfg.replica_prefix:
            raise ValueError(
                f"replica_prefix {cfg.replica_prefix!r} may not contain '.' or ':'"
            )
        if cfg.runtime not in ("sim", "wall"):
            raise ValueError(f"unknown runtime {cfg.runtime!r} ('sim' or 'wall')")
        #: a group of a sharded deployment runs on its owner's surface:
        #: the owner snapshots it in metrics() and tears it down in stop()
        self._owns_surface = sim is None
        if self._owns_surface:
            sim, network, obs, tracer, flight, durability = build_surface(
                cfg, durability
            )
        self.sim = sim
        #: which clock this deployment runs on ("sim" | "wall"); tags
        #: metrics and bench envelopes so the two are never conflated
        self.clock = getattr(sim, "clock", "sim")
        self.network = network
        self.obs = obs
        self.tracer = tracer
        self.flight = flight
        self.durable_store = durability
        if bus is not None:
            self.bus = bus
        elif self.clock == "wall":
            from repro.runtime import TcpGroupBus

            self.bus = TcpGroupBus(self.sim, config=cfg.gcs, network=self.network)
        else:
            self.bus = GroupBus(self.sim, config=cfg.gcs)
        #: adaptive batch windows: point the bus at this cluster's
        #: contention estimate unless a sharded deployment wired its own
        self._signal_prev = (0, 0)
        self._signal_ema = 0.0
        if cfg.gcs.adaptive_window and self.bus.contention_signal is None:
            self.bus.contention_signal = self.contention_signal
        self.discovery = (
            discovery if discovery is not None else DiscoveryService(self.sim)
        )
        self._cold_start = cold_start
        self.stability: Optional[StabilityTracker] = None
        if self.durable_store is not None:
            self.stability = StabilityTracker(self.durable_store.config.truncation)
            self.bus.stability = self.stability
        if self.obs is not None:
            self._register_bus_gauges()
        self.monitor = (
            OneCopyMonitor(
                self.sim,
                obs=self.obs,
                on_violation=self._on_monitor_violation,
            )
            if cfg.monitor
            else None
        )
        if self.monitor is not None:
            self.monitor.start()
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
            self._add_replica(index)
        for _ in range(cfg.read_replicas):
            reader = self._spawn_reader()
            # cold restart watches after leveling, once the covered set is known
            if self.monitor is not None and not self._cold_start:
                self._watch_reader(reader)

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
        durable = (
            self.durable_store.replica(name)
            if self.durable_store is not None
            else None
        )
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
        self._register_replica_gauges(replica)
        return replica

    @property
    def nodes(self) -> list[ReplicaNode]:
        """Every replica's engine, in replica order."""
        return [replica.node for replica in self.replicas]

    def _add_replica(self, index: int) -> None:
        replica = self._spawn_replica(index, f"{self.config.replica_prefix}{index}")
        # cold restart admits everyone once catch-up leveling is done
        # (see cold_restart); the covered sets are only complete then
        if not self._cold_start:
            self._admit(replica)

    # --------------------------------------------------------------- read tier

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
        self._register_reader_gauges(reader)
        return reader

    def _feed_floor(self) -> int:
        """The lowest position a reader can join from: the lowest live
        full replica's ``feed_seq``.  Runs on every feed publish, so it
        reads the attribute, not the status record."""
        return min((r.validation.feed_seq for r in self.replicas if r.alive), default=0)

    def _watch_reader(self, reader: ReadReplica) -> None:
        """Admit a reader to the online monitor, its bootstrap prefix
        covered."""
        self.monitor.watch(
            reader.name, reader.db, prefix=reader.replayed, covered=reader.covered_gids
        )

    def add_reader(self, donor_index: Optional[int] = None) -> ReadReplica:
        """Elastic read-tier join while traffic continues.

        The donor is captured atomically (no yields): with durability
        on, the reader replays the donor's writeset log — real
        replayable transactions, so the join stays inside the Def. 3
        audit; without it, the donor's committed row images plus its
        pending certified writesets (row images are not replayable, so
        that incarnation is excluded from the offline audit, like a
        full-state-recovered replica).  The feed subscription starts at
        the donor's feed position; anything newer is backfilled or fans
        out normally, so no certified item is missed or applied twice.
        """
        donor = self._donor(donor_index, exclude=-1)
        reader = self._spawn_reader(from_seq=donor.status().feed_seq)
        self._join_reader(reader, donor)
        if self.monitor is not None:
            self._watch_reader(reader)
        if self.flight is not None:
            self.flight.snapshot(
                f"reader-joined:{reader.name}", replica=reader.name,
                watermark=reader.watermark, feed_pos=reader.feed_pos,
            )
        return reader

    def _join_reader(self, reader: ReadReplica, donor: MiddlewareReplica) -> None:
        """Bootstrap a fresh reader from ``donor``, captured atomically:
        replay the donor's whole log when it still starts at the first
        record, otherwise install the donor's full state."""
        wslog = donor.wslog
        if wslog is not None and wslog.can_serve_from(0):
            reader.join_from_log(wslog.records_after(0))
        else:
            reader.join_from_state(donor.recovery.full_state())

    def _teardown_reader(self, reader: ReadReplica) -> None:
        self.discovery.unregister(reader.host.address)
        reader.crash()
        self.network.crash(reader.host.address)
        if self.monitor is not None:
            # a departed reader's missing suffix is legitimate — keep
            # auditing it and every certified update would eventually be
            # flagged lost
            self.monitor.unwatch(reader.name)
        if self.obs is not None:
            # same hygiene as a crashed full replica: no stale
            # ``R*.reader.*`` gauges probing the corpse
            self.obs.registry.unregister_prefix(f"{reader.name}.")

    def crash_reader(self, index: int) -> None:
        """Take down a lazy replica abruptly (fault injection)."""
        reader = self.readers[index]
        if not reader.alive:
            return
        self._teardown_reader(reader)
        if self.flight is not None:
            self.flight.snapshot(
                f"crash:{reader.name}", replica=reader.name, index=index
            )

    def remove_reader(self, index: int) -> None:
        """Decommission a lazy replica gracefully (scale-down): same
        teardown as a crash — readers hold no replicated state that
        needs handing off — minus the flight-recorder post-mortem."""
        reader = self.readers[index]
        if not reader.alive:
            return
        self._teardown_reader(reader)

    def alive_readers(self) -> list[ReadReplica]:
        return [r for r in self.readers if r.alive]

    def _register_reader_gauges(self, reader: ReadReplica) -> None:
        if self.obs is None:
            return
        registry = self.obs.registry
        name = reader.name
        registry.gauge(f"{name}.reader.watermark", lambda: reader.watermark)
        registry.gauge(f"{name}.reader.lag", lambda: reader.lag)
        registry.gauge(f"{name}.reader.staleness_s", lambda: reader.staleness_s)
        registry.gauge(f"{name}.reader.queue_depth", lambda: len(reader.inbox))
        registry.gauge(
            f"{name}.reader.active_sessions", lambda: reader.active_sessions
        )

    # --------------------------------------------------------------- observability

    def _on_monitor_violation(self, violation) -> None:
        """Snapshot the flight recorder the moment the monitor trips —
        the post-mortem then covers the window *around* the violation,
        not whatever remains at the end of the run."""
        if self.flight is not None:
            self.flight.snapshot(
                f"monitor:{violation.kind}", violation=violation.to_dict()
            )

    def contention_signal(self) -> float:
        """0..1 contention estimate feeding the adaptive batch window.

        Combines an EMA of the certification abort fraction (delta since
        the last sample, so the signal tracks the present, not the whole
        run) with the age of the oldest hole across replicas: either one
        saturating means the cluster is paying for conflicts and the bus
        should hold batches open longer for the reorder/salvage machinery.
        Hole AGE, not count: a couple of in-flight holes is the normal
        pipeline state at any instant, but a hole outliving several batch
        windows is a commit stalled behind conflicts.
        """
        live = [replica.status() for replica in self.alive_replicas()]
        if not live:
            return self._signal_ema
        decisions, rejects = live[0].certifier_decisions, live[0].certifier_rejected
        prev_decisions, prev_rejects = self._signal_prev
        # recovery can swap in a certifier with reset counters: clamp
        delta_d = max(0, decisions - prev_decisions)
        delta_r = max(0, rejects - prev_rejects)
        self._signal_prev = (decisions, rejects)
        if delta_d:
            fraction = delta_r / delta_d
            self._signal_ema = 0.5 * self._signal_ema + 0.5 * fraction
        oldest = max(status.oldest_hole_age for status in live)
        # saturate when a hole has outlived ~8 base batch windows
        horizon = 8.0 * max(self.config.gcs.batch_window, 1e-6)
        return max(self._signal_ema, min(1.0, oldest / horizon))

    def _bus_label(self) -> str:
        """Gauge-name prefix for this cluster's GCS bus: ``gcs`` for a
        standalone deployment, ``G<k>.gcs`` for a sharded group (derived
        from the group's replica prefix, e.g. ``"G1-R"`` -> ``"G1"``)."""
        label = self.config.replica_prefix.rstrip("R").rstrip("-")
        return f"{label}.gcs" if label else "gcs"

    def _register_bus_gauges(self) -> None:
        registry = self.obs.registry
        label = self._bus_label()
        bus = self.bus
        registry.gauge(f"{label}.buffer_occupancy", lambda: len(bus._batch_buffer))
        registry.gauge(f"{label}.mean_batch_size", lambda: bus.mean_batch_size)
        registry.gauge(f"{label}.delivered_entries", lambda: bus.delivered_count)
        registry.gauge(f"{label}.reordered_entries", lambda: bus.reordered_entries)
        registry.gauge(f"{label}.reordered_batches", lambda: bus.reordered_batches)
        registry.gauge(f"{label}.batch_window", lambda: bus.current_window)
        if self.stability is not None:
            tracker = self.stability
            registry.gauge(f"{label}.stable_watermark", tracker.stable_seq)

    def _register_replica_gauges(self, replica: MiddlewareReplica) -> None:
        """Point the sampler's per-replica gauges at one (possibly
        recovered) incarnation — re-registering under the same names
        replaces the previous incarnation's callbacks."""
        if self.obs is None:
            return
        registry = self.obs.registry
        status = replica.status
        gauges = REPLICA_GAUGES
        if status().log_tip_seq is not None:
            gauges = {**gauges, **LOG_GAUGES}
        for gauge, read in gauges.items():
            registry.gauge(f"{replica.name}.{gauge}", lambda read=read: read(status()))

    # ------------------------------------------------------------ data loading

    def load_schema(self, ddl_statements: Iterable[str]) -> None:
        """Apply CREATE statements identically on every replica.

        With durability on, each statement also becomes a genesis log
        record so the log is replayable from sequence 1 (cold restart
        rebuilds the schema before it replays any writeset).
        """
        for sql in ddl_statements:
            for replica in self.replicas:
                replica.db.run_ddl(sql)
                if replica.log is not None:
                    replica.log.genesis(partial(LogRecord.ddl, sql=sql))
            for reader in self.readers:
                # genesis never rides the feed: readers get it directly
                reader.db.run_ddl(sql)

    def bulk_load(self, table: str, rows: list[dict]) -> None:
        """Seed identical initial data on every replica (csn-0 versions)."""
        # one record for every replica's log: they all append it at the
        # same seq, so its row copy and JSON text are built once
        genesis = cache(partial(LogRecord.load, table=table, rows=rows))
        with collector_paused():
            for replica in self.replicas:
                replica.db.bulk_load(table, rows)
                if replica.log is not None:
                    replica.log.genesis(genesis)
            for reader in self.readers:
                reader.db.bulk_load(table, rows)

    # ----------------------------------------------------------------- clients

    new_client_host = Comparator.new_client_host

    # ------------------------------------------------------------------ faults

    def crash(self, index: int) -> None:
        """Take down a middleware/DB replica pair (§5.4).

        Kills the middleware processes, disconnects its clients, removes
        it from the group (survivors learn via view change after the
        failure-detection delay), and stops discovery responses.
        """
        replica = self.replicas[index]
        if not replica.alive:
            return
        self.discovery.unregister(replica.host.address)
        replica.crash()
        if replica.wslog is not None:
            # appended-but-unflushed log records die with the process;
            # the cluster-wide copies survive in the peers' logs
            replica.wslog.drop_tail()
        self.bus.crash(replica.name)
        self.network.crash(replica.host.address)
        if self.tracer is not None:
            # a crashed replica's in-flight spans will never finish
            # normally; close them so they export with status="crashed"
            self.tracer.close_open(replica=replica.name, status="crashed")
        if self.monitor is not None:
            # its history is legitimately a prefix now — auditing it
            # further would only raise false lost-writeset flags
            self.monitor.unwatch(replica.name)
        if self.obs is not None:
            # drop the dead incarnation's gauges instead of letting the
            # sampler probe them as NaN forever (recovery re-registers)
            self.obs.registry.unregister_prefix(f"{replica.name}.")
        if self.flight is not None:
            self.flight.snapshot(
                f"crash:{replica.name}", replica=replica.name, index=index
            )

    def alive_replicas(self) -> list[MiddlewareReplica]:
        return [r for r in self.replicas if r.alive]

    def _pick_donor(self, exclude: int) -> int:
        """Best recovery donor: the alive, installed replica with the
        most durable log (it can serve the longest delta) and,
        tie-broken, the shallowest to-commit queue (least busy applying
        writesets)."""
        candidates = [
            (-(status.log_durable_seq or 0), status.tocommit_queue_len, i)
            for i, status in enumerate(map(MiddlewareReplica.status, self.replicas))
            if status.alive and status.installed and i != exclude
        ]
        if not candidates:
            raise ValueError("no alive donor replica")
        return min(candidates)[2]

    def _donor(self, donor_index: Optional[int], exclude: int) -> MiddlewareReplica:
        """The named donor, or the best one; it must be alive and hold an
        installed state (a recovery still waiting for its own donor's
        state has nothing to give)."""
        if donor_index is None:
            donor_index = self._pick_donor(exclude=exclude)
        donor = self.replicas[donor_index]
        status = donor.status()
        if not status.alive:
            raise ValueError(f"donor replica {donor_index} is not alive")
        if not status.installed:
            raise ValueError(f"donor replica {donor_index} is still recovering")
        return donor

    def recover_replica(
        self,
        index: int,
        donor_index: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> MiddlewareReplica:
        """Bring a crashed replica back online (§5.4 recovery, extended
        to the *online* scheme of §8: transaction processing continues).

        The new incarnation joins the group and multicasts a sync
        request.  On a durable cluster the default ``mode`` is
        ``"delta"``: the rejoiner replays its own durable log (plus its
        newest checkpoint) and the donor ships only the log records
        above the rejoiner's durable position — transfer proportional to
        downtime, and the history stays auditable.  ``mode="full"`` (the
        only mode without durability, and the one a rejoiner whose own
        state cannot replay falls back to) ships the donor's entire
        committed state captured atomically at the sync point.  The
        donor defaults to the alive replica with the highest durable log
        / shallowest queue; ``donor_index`` overrides.
        """
        old = self.replicas[index]
        if old.alive:
            raise ValueError(f"replica {index} is still alive")
        donor = self._donor(donor_index, exclude=index)
        return self._spawn_replica(
            index, old.name, incarnation=old.incarnation + 1,
            recover_from=donor.name, mode=mode,
        )

    def add_replica(self, donor_index: Optional[int] = None) -> MiddlewareReplica:
        """Elastic online join: bootstrap replica N+1 while traffic
        continues (§8's online recovery, applied to a brand-new member).

        The joiner runs the ordinary recovery handshake with an empty
        local log, so a durable donor ships checkpoint + log suffix (or
        the whole log when nothing was truncated) and a non-durable one
        a full state transfer.  Clients discover it once installed.
        """
        index = len(self.replicas)
        donor = self._donor(donor_index, exclude=index)
        name = f"{self.config.replica_prefix}{index}"
        return self._spawn_replica(index, name, recover_from=donor.name)

    def _on_replica_recovered(self, replica: MiddlewareReplica) -> None:
        """Recovery completed: re-admit the replica, then snapshot."""
        name = replica.name
        self._admit(replica)
        if self.flight is not None:
            self.flight.snapshot(
                f"recovered:{name}", replica=name, stats=replica.status().recovery
            )

    def _admit(self, replica: MiddlewareReplica) -> None:
        """A replica whose state is installed rejoins the stability
        watermark and, if its whole history is made of replayable
        transactions, the audits."""
        status = replica.status()
        if self.stability is not None and status.log_durable_seq is not None:
            self.stability.register(replica.name, status.log_durable_seq)
            replica.member.ack_durable(status.log_durable_seq)
        if self.monitor is not None and not status.recovered:
            # the replayed prefix committed here via log replay, before
            # any event the history will record
            self.monitor.watch(replica.name, replica.db, prefix=replica.recovery.replayed)

    @classmethod
    def cold_restart(
        cls,
        config: ClusterConfig,
        durability: DurabilityStore,
        **kwargs,
    ) -> "SIRepCluster":
        """Rebuild a whole cluster from durable logs after every replica
        stopped (full-cluster crash).

        Each replica replays its own checkpoint + log; replicas whose
        log ends early (their tail died with them) catch up from the
        longest log before traffic starts, and a replica whose own
        state cannot replay installs that replica's full state.  Do NOT
        re-run ``load_schema``/``bulk_load`` — genesis records replay
        them.
        """
        cluster = cls(config, durability=durability, cold_start=True, **kwargs)
        cluster._level_after_cold_restart()
        return cluster

    def _level_after_cold_restart(self) -> None:
        """Post-cold-start leveling: bring every replica up to the
        longest log that can replay — a short log catches up from it, a
        replica whose own state cannot replay installs its full state, as
        a reader's snapshot join does — then admit everyone to watermark
        + audits."""
        statuses = [(replica, replica.status()) for replica in self.replicas]
        best, best_status = max(
            ((r, s) for r, s in statuses if s.can_replay),
            key=lambda pair: pair[1].log_tip_seq,
        )
        for replica, status in statuses:
            if status.checkpoints_unreadable and self.flight is not None:
                self.flight.snapshot(
                    f"checkpoint-unreadable:{replica.name}", replica=replica.name,
                    files=list(status.checkpoints_unreadable),
                )
            if not status.can_replay:
                replica.recovery.install_state(best.recovery.full_state())
            elif status.log_tip_seq < best_status.log_tip_seq:
                replica.log.catch_up(best.wslog.records_after(status.log_tip_seq))
            # gids issued from here on must not repeat an earlier life's
            replica.recovery.resume_incarnation()
        for replica in self.replicas:
            self._admit(replica)
        # readers restart empty (no durable log of their own): bootstrap
        # each from the leveled longest replica, then admit to the monitor
        for reader in self.readers:
            self._join_reader(reader, best)
            if self.monitor is not None:
                self._watch_reader(reader)

    # ------------------------------------------------------------------ audits

    def one_copy_report(self) -> OneCopyReport:
        """Run the Definition-3 checker over the recorded histories.

        Only replicas that are still alive are audited: a crashed replica
        legitimately misses the suffix of committed transactions.
        Recovered replicas are also excluded — their pre-recovery history
        arrived via state transfer, not as begin/commit events — so the
        audit covers the continuously-alive replicas.
        """
        audited = [
            (r, r.recovery.replayed) for r in self.alive_replicas() if not r.status().recovered
        ]
        # lazy read replicas are full members of the audit: their applied
        # stream is real remote transactions in certification order, and
        # their local read-only snapshots must embed into the 1-copy-SI
        # order like anyone else's.  Snapshot-joined readers (row images,
        # audit_complete=False) are excluded like full-state recoveries.
        audited += [(r, r.replayed) for r in self.readers if r.alive and r.audit_complete]
        audit = KeyedAudit()
        for replica, replayed in audited:
            # A log-replayed prefix (delta recovery, cold restart)
            # committed before the recorded history began, so it produced
            # no events: it goes in as writes-only transactions ahead of
            # the history, so every replica shows the same transactions.
            audit.feed_history(replica.name, replica.node.db.history, replayed)
        report = audit.report()
        if not report.ok and self.flight is not None:
            self.flight.snapshot(
                "audit-failed",
                violations=[str(v) for v in report.violations],
                cycle=[str(event) for event in (report.cycle or [])],
            )
        return report

    # ------------------------------------------------------------------- stats

    def statuses(self) -> list[ReplicaStatus]:
        """Every replica's status record, in replica order."""
        return [replica.status() for replica in self.replicas]

    def total_commits(self) -> int:
        return sum(s.update_commits + s.readonly_commits for s in self.statuses())

    def total_certification_aborts(self) -> int:
        return sum(s.certification_aborts for s in self.statuses())

    def hole_wait_fraction(self) -> float:
        statuses = self.statuses()
        attempts = sum(s.hole_start_attempts for s in statuses)
        waits = sum(s.hole_start_waits for s in statuses)
        return waits / attempts if attempts else 0.0

    def metrics(self) -> dict:
        """Operational snapshot across replicas (monitoring surface)."""
        statuses = self.statuses()
        per_replica = {}
        for replica, status in zip(self.replicas, statuses):
            fields = status._asdict()
            fields["db_versions"] = replica.node.db.version_count()
            row = {key: fields[key] for key in REPLICA_KEYS}
            if status.log_tip_seq is not None:
                row.update((key, fields[key]) for key in LOG_KEYS)
            if status.recovery:
                row["recovery"] = dict(status.recovery)
            per_replica[replica.name] = row
        out = {
            "now": self.sim.now,
            # which clock produced these numbers — sim seconds and wall
            # seconds must never be compared against each other
            "runtime": self.clock,
            "commits": self.total_commits(),
            "certification_aborts": self.total_certification_aborts(),
            "gcs_deliveries": self.bus.delivered_count,
            "gcs_batches": self.bus.delivered_batches,
            "gcs_mean_batch_size": self.bus.mean_batch_size,
            # contention-engine counters: certification is deterministic
            # and identical everywhere, so the cluster-level salvage
            # totals are the max over replicas, not the sum
            "reordered_total": self.bus.reordered_entries,
            "salvaged_total": max((s.salvaged for s in statuses), default=0),
            "salvage_rejects": max((s.salvage_rejects for s in statuses), default=0),
            # per-replica engine counter (blind stages that skipped the
            # eager first-updater check): a sum, unlike the cert totals
            "deferred_ww_total": sum(s.deferred_ww for s in statuses),
            "batch_window": self.bus.current_window,
            "replicas": per_replica,
        }
        if self.readers:
            out["readers"] = {r.name: r.metrics() for r in self.readers}
            out["feed"] = self.feed.metrics()
        if self.stability is not None:
            out["stable_watermark"] = self.stability.stable_seq()
        if self.tracer is not None and self._owns_surface:
            out["span_trace"] = {
                "started": self.tracer.started,
                "finished": self.tracer.finished_count,
                "open": len(self.tracer.open_spans()),
            }
        if self.monitor is not None:
            out["monitor"] = self.monitor.summary()
        if self.obs is not None and self._owns_surface:
            out["obs"] = self.obs.snapshot()
        # strict JSON: results/*.json must never contain literal NaN
        return sanitize(out)

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
        if self.tracer is not None and self._owns_surface:
            self.tracer.close_open(status="shutdown")
        if self.obs is not None:
            # on a shared registry too: the names carry this group's
            # replica prefix, so only this group's gauges go
            for member in (*self.replicas, *self.readers):
                self.obs.registry.unregister_prefix(f"{member.name}.")
        if self.clock == "wall" and self._owns_surface:
            # wall runtime holds real resources (sockets, timers, an
            # event loop); sweep them so repeated runs never leak
            self.sim.stop()
