"""Who is in an SI-Rep deployment, one replica at a time (§5.4, §8):
crash, recovery and online join of full replicas and lazy readers, and
the cold-restart leveling — every action that reaches past a replica's
``status()``.  Functions take the cluster first; :class:`SIRepCluster`
binds the ones it exposes as class attributes."""

from __future__ import annotations

from typing import Optional

from repro.core.srca_rep import MiddlewareReplica
from repro.errors import ReproError
from repro.reader import ReadReplica


def _retire(cluster, member, index: Optional[int]) -> None:
    """The one way out, for a full replica and a reader: stop answering
    discovery, kill the processes, leave what only a full replica holds
    (its log tail, its group, its open spans), drop the host, the
    monitor watch (its history is legitimately a prefix now) and the
    gauges (recovery re-registers them), and, given an ``index``,
    snapshot the flight recorder as a crash."""
    cluster.discovery.unregister(member.host.address)
    member.crash()
    if isinstance(member, MiddlewareReplica):
        if member.wslog is not None:
            # appended-but-unflushed log records die with the process;
            # the cluster-wide copies survive in the peers' logs
            member.wslog.drop_tail()
        cluster.bus.crash(member.name)
        if cluster.tracer is not None:
            # its in-flight spans will never finish: export them "crashed"
            cluster.tracer.close_open(replica=member.name, status="crashed")
    cluster.network.crash(member.host.address)
    if cluster.monitor is not None:
        cluster.monitor.unwatch(member.name)
    if cluster.obs is not None:
        cluster.obs.registry.unregister_prefix(f"{member.name}.")
    if index is not None and cluster.flight is not None:
        cluster.flight.snapshot(f"crash:{member.name}", replica=member.name, index=index)


def crash(cluster, index: int) -> None:
    """Take down a middleware/DB replica pair (§5.4): its clients are
    disconnected, survivors learn of it by a view change after the
    failure-detection delay, and discovery stops answering for it."""
    replica = cluster.replicas[index]
    if replica.alive:
        _retire(cluster, replica, index)


def alive_replicas(cluster) -> list[MiddlewareReplica]:
    return [r for r in cluster.replicas if r.alive]


def pick_donor(cluster, exclude: int) -> int:
    """Best recovery donor: the alive, installed replica with the most
    durable log (it can serve the longest delta), tie-broken by the
    shallowest to-commit queue."""
    candidates = [
        (-(status.log_durable_seq or 0), status.tocommit_queue_len, i)
        for i, status in enumerate(map(MiddlewareReplica.status, cluster.replicas))
        if status.alive and status.installed and i != exclude
    ]
    if not candidates:
        raise ValueError("no alive donor replica")
    return min(candidates)[2]


def _donor(cluster, donor_index: Optional[int], exclude: int) -> MiddlewareReplica:
    """The named donor, or the best one; it must be alive and hold an
    installed state (a recovery still waiting for its own donor's
    state has nothing to give)."""
    if donor_index is None:
        donor_index = pick_donor(cluster, exclude=exclude)
    donor = cluster.replicas[donor_index]
    status = donor.status()
    if not status.alive:
        raise ValueError(f"donor replica {donor_index} is not alive")
    if not status.installed:
        raise ValueError(f"donor replica {donor_index} is still recovering")
    return donor


def recover_replica(
    cluster, index: int, donor_index: Optional[int] = None, mode: Optional[str] = None
) -> MiddlewareReplica:
    """Bring a crashed replica back online while transaction processing
    continues (§5.4 recovery, online as in §8).  A durable cluster's
    default ``mode`` is ``"delta"``: the rejoiner replays its own
    checkpoint and log, and the donor ships only the records above its
    durable position.  ``mode="full"`` (without durability, or when the
    rejoiner's state cannot replay) ships the donor's whole state,
    captured at the sync point.  ``donor_index`` overrides
    :func:`pick_donor`."""
    old = cluster.replicas[index]
    if old.alive:
        raise ValueError(f"replica {index} is still alive")
    donor = _donor(cluster, donor_index, exclude=index)
    return cluster._spawn_replica(
        index, old.name, incarnation=old.incarnation + 1,
        recover_from=donor.name, mode=mode,
    )


def add_replica(cluster, donor_index: Optional[int] = None) -> MiddlewareReplica:
    """Elastic online join of replica N+1 while traffic continues: the
    ordinary recovery handshake from an empty log, so a durable donor
    ships checkpoint + log suffix (or its whole log) and a non-durable
    one its full state.  Clients discover it once installed."""
    index = len(cluster.replicas)
    donor = _donor(cluster, donor_index, exclude=index)
    name = f"{cluster.config.replica_prefix}{index}"
    return cluster._spawn_replica(index, name, recover_from=donor.name)


def on_replica_recovered(cluster, replica: MiddlewareReplica) -> None:
    """Recovery completed: re-admit the replica, then snapshot."""
    admit(cluster, replica)
    if cluster.flight is not None:
        cluster.flight.snapshot(
            f"recovered:{replica.name}", replica=replica.name,
            stats=replica.status().recovery,
        )


def admit(cluster, replica: MiddlewareReplica) -> None:
    """A replica whose state is installed rejoins the stability
    watermark and, if its whole history is made of replayable
    transactions, the audits."""
    status = replica.status()
    if cluster.stability is not None and status.log_durable_seq is not None:
        cluster.stability.register(replica.name, status.log_durable_seq)
        replica.member.ack_durable(status.log_durable_seq)
    if cluster.monitor is not None and not status.recovered:
        # the replayed prefix committed here via log replay, before
        # any event the history will record
        cluster.monitor.watch(replica.name, replica.db, prefix=replica.recovery.replayed)


def level_after_cold_restart(cluster) -> None:
    """Bring every replica up to the longest log that can replay — a
    short log catches up from it, a replica whose own state cannot
    replay installs its full state — then admit everyone to the
    watermark and the audits, and bootstrap the readers.  Raises
    :class:`ReproError`, naming every replica's unreadable checkpoints,
    when no replica can replay."""
    statuses = [(replica, replica.status()) for replica in cluster.replicas]
    best, best_status = max(
        ((r, s) for r, s in statuses if s.can_replay),
        key=lambda pair: pair[1].log_tip_seq, default=(None, None),
    )
    for replica, status in statuses:
        if status.checkpoints_unreadable and cluster.flight is not None:
            cluster.flight.snapshot(
                f"checkpoint-unreadable:{replica.name}", replica=replica.name,
                files=list(status.checkpoints_unreadable),
            )
        if best is None:
            continue
        if not status.can_replay:
            replica.recovery.install(best.recovery.transfer(None))
        elif status.log_tip_seq < best_status.log_tip_seq:
            replica.log.catch_up(best.wslog.records_after(status.log_tip_seq))
        # gids issued from here on must not repeat an earlier life's
        replica.recovery.resume_incarnation()
    if best is None:
        unreadable = "; ".join(
            f"{r.name}: {', '.join(s.checkpoints_unreadable) or 'none'}" for r, s in statuses
        )
        raise ReproError(
            "cold restart: no replica can replay its durable state "
            f"(unreadable checkpoints: {unreadable})"
        )
    for replica in cluster.replicas:
        admit(cluster, replica)
    # readers restart empty (they log nothing): join the leveled best
    for reader in cluster.readers:
        _join_reader(reader, best)
        watch_reader(cluster, reader)


def watch_reader(cluster, reader: ReadReplica) -> None:
    """Admit a reader to the online monitor, if one runs, its bootstrap
    prefix covered."""
    if cluster.monitor is not None:
        cluster.monitor.watch(
            reader.name, reader.db, prefix=reader.replayed, covered=reader.covered_gids
        )


def add_reader(cluster, donor_index: Optional[int] = None) -> ReadReplica:
    """Elastic read-tier join while traffic continues.

    The donor is captured atomically (no yields).  With durability on,
    the reader replays the donor's writeset log, so the join stays
    inside the Def. 3 audit; without it, the reader installs the
    donor's row images and pending certified writesets, and leaves the
    offline audit like a full-state recovery.  The feed subscription
    starts at the donor's feed position, so no certified item is missed
    or applied twice.
    """
    donor = _donor(cluster, donor_index, exclude=-1)
    reader = cluster._spawn_reader(from_seq=donor.status().feed_seq)
    _join_reader(reader, donor)
    watch_reader(cluster, reader)
    if cluster.flight is not None:
        cluster.flight.snapshot(
            f"reader-joined:{reader.name}", replica=reader.name,
            watermark=reader.watermark, feed_pos=reader.feed_pos,
        )
    return reader


def _join_reader(reader: ReadReplica, donor: MiddlewareReplica) -> None:
    """Bootstrap a fresh reader from ``donor``'s whole log when it still
    starts at the first record, else from its full state."""
    wslog = donor.wslog
    if wslog is not None and wslog.can_serve_from(0):
        reader.join_from_log(wslog.records_after(0))
    else:
        reader.join_from_state(donor.recovery.transfer(None))


def crash_reader(cluster, index: int) -> None:
    """Take down a lazy replica abruptly (fault injection)."""
    reader = cluster.readers[index]
    if reader.alive:
        _retire(cluster, reader, index)


def remove_reader(cluster, index: int) -> None:
    """Decommission a lazy replica (scale-down): readers hold no state
    to hand off, so a crash without the flight-recorder post-mortem."""
    reader = cluster.readers[index]
    if reader.alive:
        _retire(cluster, reader, None)


def alive_readers(cluster) -> list[ReadReplica]:
    return [r for r in cluster.readers if r.alive]
