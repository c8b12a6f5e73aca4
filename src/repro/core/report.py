"""What an SI-Rep deployment reports to its operator: ``metrics()``,
the sampler's gauges, the adaptive batch window's contention estimate,
the monitor's flight hook and the offline Def. 3 audit.  Functions take
the cluster first; :class:`SIRepCluster` binds the ones it exposes as
class attributes."""

from __future__ import annotations

from functools import partial
from operator import attrgetter

from repro.core.protocol import ReplicaStatus
from repro.obs import OneCopyMonitor, sanitize
from repro.si.onecopy import KeyedAudit, OneCopyReport

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


def attach(cluster) -> None:
    """What the report watches from the start: the contention estimate
    (the adaptive batch window's, unless one is wired already), the bus
    gauges and the online monitor."""
    cluster._signal_prev = (0, 0)
    cluster._signal_ema = 0.0
    if cluster.config.gcs.adaptive_window and cluster.bus.contention_signal is None:
        cluster.bus.contention_signal = cluster.contention_signal
    if cluster.obs is not None:
        _register_bus_gauges(cluster)
    cluster.monitor = None
    if cluster.config.monitor:
        cluster.monitor = OneCopyMonitor(
            cluster.sim, obs=cluster.obs, on_violation=partial(_on_monitor_violation, cluster)
        )
        cluster.monitor.start()


def _register_bus_gauges(cluster) -> None:
    """The GCS bus gauges, under ``gcs.`` for a standalone deployment and
    ``G<k>.gcs.`` for a sharded group (replica prefix ``"G1-R"`` -> ``G1``)."""
    registry = cluster.obs.registry
    group = cluster.config.replica_prefix.rstrip("R").rstrip("-")
    label = f"{group}.gcs" if group else "gcs"
    bus = cluster.bus
    registry.gauge(f"{label}.buffer_occupancy", lambda: len(bus._batch_buffer))
    registry.gauge(f"{label}.mean_batch_size", lambda: bus.mean_batch_size)
    registry.gauge(f"{label}.delivered_entries", lambda: bus.delivered_count)
    registry.gauge(f"{label}.reordered_entries", lambda: bus.reordered_entries)
    registry.gauge(f"{label}.reordered_batches", lambda: bus.reordered_batches)
    registry.gauge(f"{label}.batch_window", lambda: bus.current_window)
    if cluster.stability is not None:
        registry.gauge(f"{label}.stable_watermark", cluster.stability.stable_seq)


def register_replica_gauges(cluster, replica) -> None:
    """Point the sampler's per-replica gauges at one (possibly
    recovered) incarnation — re-registering under the same names
    replaces the previous incarnation's callbacks."""
    if cluster.obs is None:
        return
    registry = cluster.obs.registry
    status = partial(_status, cluster, replica)
    gauges = REPLICA_GAUGES
    if status().log_tip_seq is not None:
        gauges = {**gauges, **LOG_GAUGES}
    for gauge, read in gauges.items():
        registry.gauge(f"{replica.name}.{gauge}", lambda read=read: read(status()))


def register_reader_gauges(cluster, reader) -> None:
    if cluster.obs is None:
        return
    registry = cluster.obs.registry
    name = reader.name
    registry.gauge(f"{name}.reader.watermark", lambda: reader.watermark)
    registry.gauge(f"{name}.reader.lag", lambda: reader.lag)
    registry.gauge(f"{name}.reader.staleness_s", lambda: reader.staleness_s)
    registry.gauge(f"{name}.reader.queue_depth", lambda: len(reader.inbox))
    registry.gauge(f"{name}.reader.active_sessions", lambda: reader.active_sessions)


def _on_monitor_violation(cluster, violation) -> None:
    """Snapshot the flight recorder the moment the monitor trips —
    the post-mortem then covers the window *around* the violation,
    not whatever remains at the end of the run."""
    if cluster.flight is not None:
        cluster.flight.snapshot(f"monitor:{violation.kind}", violation=violation.to_dict())


def contention_signal(cluster) -> float:
    """0..1 contention estimate feeding the adaptive batch window: the
    larger of an EMA of the certification abort fraction since the last
    sample and the age of the oldest hole across replicas.  Either one
    saturating means the bus should hold batches open longer for the
    reorder/salvage machinery.  Hole AGE, not count: a few in-flight
    holes are the normal pipeline; one outliving several batch windows
    is a commit stalled behind conflicts."""
    live = [replica.status() for replica in cluster.alive_replicas()]
    if not live:
        return cluster._signal_ema
    decisions, rejects = live[0].certifier_decisions, live[0].certifier_rejected
    prev_decisions, prev_rejects = cluster._signal_prev
    # recovery can swap in a certifier with reset counters: clamp
    delta_d = max(0, decisions - prev_decisions)
    delta_r = max(0, rejects - prev_rejects)
    cluster._signal_prev = (decisions, rejects)
    if delta_d:
        fraction = delta_r / delta_d
        cluster._signal_ema = 0.5 * cluster._signal_ema + 0.5 * fraction
    oldest = max(status.oldest_hole_age for status in live)
    # saturate when a hole has outlived ~8 base batch windows
    horizon = 8.0 * max(cluster.config.gcs.batch_window, 1e-6)
    return max(cluster._signal_ema, min(1.0, oldest / horizon))


def one_copy_report(cluster) -> OneCopyReport:
    """Run the Definition-3 checker over the recorded histories of the
    alive replicas (a crashed one legitimately misses a suffix) whose
    whole history is transactions (not a recovered one, whose state
    arrived as row images)."""
    audited = [
        (r, r.recovery.replayed) for r in cluster.alive_replicas() if not r.status().recovered
    ]
    # readers are audited too: they apply real transactions in
    # certification order, and their read-only snapshots must embed in
    # the 1-copy-SI order; snapshot-joined ones are excluded likewise
    audited += [(r, r.replayed) for r in cluster.readers if r.alive and r.audit_complete]
    audit = KeyedAudit()
    for replica, replayed in audited:
        # a log-replayed prefix (delta recovery, cold restart) left no
        # events: it goes in as writes-only transactions ahead of them
        audit.feed_history(replica.name, replica.node.db.history, replayed)
    report = audit.report()
    if not report.ok and cluster.flight is not None:
        cluster.flight.snapshot(
            "audit-failed",
            violations=[str(v) for v in report.violations],
            cycle=[str(event) for event in (report.cycle or [])],
        )
    return report


def _status(cluster, replica) -> ReplicaStatus:
    """``replica.status()``, built once per replica within one probe of
    the gauges or one ``metrics()`` call."""
    if cluster.obs is None:
        return replica.status()
    return cluster.obs.registry.once(replica, replica.status)


def statuses(cluster) -> list[ReplicaStatus]:
    """Every replica's status record, in replica order."""
    return [_status(cluster, replica) for replica in cluster.replicas]


def total_commits(cluster, records=None) -> int:
    """Commits across replicas; ``records`` are their status records
    when the caller has them already."""
    records = statuses(cluster) if records is None else records
    return sum(s.update_commits + s.readonly_commits for s in records)


def total_certification_aborts(cluster, records=None) -> int:
    records = statuses(cluster) if records is None else records
    return sum(s.certification_aborts for s in records)


def hole_wait_fraction(cluster) -> float:
    records = statuses(cluster)
    attempts = sum(s.hole_start_attempts for s in records)
    waits = sum(s.hole_start_waits for s in records)
    return waits / attempts if attempts else 0.0


def metrics(cluster) -> dict:
    """Operational snapshot across replicas (monitoring surface): one
    sweep, so each replica's status record is built once, the gauges in
    the embedded ``obs`` snapshot included."""
    if cluster.obs is None:
        return _metrics(cluster)
    with cluster.obs.registry.sweep():
        return _metrics(cluster)


def _metrics(cluster) -> dict:
    records = statuses(cluster)
    per_replica = {}
    for replica, status in zip(cluster.replicas, records):
        fields = status._asdict()
        fields["db_versions"] = replica.node.db.version_count()
        row = {key: fields[key] for key in REPLICA_KEYS}
        if status.log_tip_seq is not None:
            row.update((key, fields[key]) for key in LOG_KEYS)
        if status.recovery:
            row["recovery"] = dict(status.recovery)
        per_replica[replica.name] = row
    bus = cluster.bus
    out = {
        "now": cluster.sim.now,
        # which clock produced these numbers — sim seconds and wall
        # seconds must never be compared against each other
        "runtime": cluster.clock,
        "commits": total_commits(cluster, records),
        "certification_aborts": total_certification_aborts(cluster, records),
        "gcs_deliveries": bus.delivered_count,
        "gcs_batches": bus.delivered_batches,
        "gcs_mean_batch_size": bus.mean_batch_size,
        # contention-engine counters: certification is deterministic
        # and identical everywhere, so the cluster-level salvage
        # totals are the max over replicas, not the sum
        "reordered_total": bus.reordered_entries,
        "salvaged_total": max((s.salvaged for s in records), default=0),
        "salvage_rejects": max((s.salvage_rejects for s in records), default=0),
        # per-replica engine counter (blind stages that skipped the
        # eager first-updater check): a sum, unlike the cert totals
        "deferred_ww_total": sum(s.deferred_ww for s in records),
        "batch_window": bus.current_window,
        "replicas": per_replica,
    }
    if cluster.readers:
        out["readers"] = {r.name: r.metrics() for r in cluster.readers}
        out["feed"] = cluster.feed.metrics()
    if cluster.stability is not None:
        out["stable_watermark"] = cluster.stability.stable_seq()
    # a sharded group's surface is reported once, by its owner
    if cluster._owns_surface:
        out.update(cluster.surface.span_report())
    if cluster.monitor is not None:
        out["monitor"] = cluster.monitor.summary()
    if cluster._owns_surface:
        out.update(cluster.surface.obs_report())
    # strict JSON: results/*.json must never contain literal NaN
    return sanitize(out)
