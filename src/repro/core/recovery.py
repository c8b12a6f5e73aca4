"""Recovery of one middleware replica (§5.4, online as in §8; DESIGN.md §4g).

:class:`Recovery` is the handshake, both sides: a joiner installs a
donor's state at a total-order point, and a donor captures and ships it
(:meth:`Recovery.transfer` is the one choice between a delta and a full
state, and :meth:`Recovery.install` the one way a transfer goes in).
Every state image is a :class:`Checkpoint`: a replica's own, a donor's,
or a donor's full state.  A replica rebuilds from its own durable state
— its newest checkpoint plus the writeset log above it — and asks a
donor only for what that state lacks.  :class:`ReplicaLog` owns what
that rests on: the records Fig. 4's validation stage appends, the group
flush, checkpoints and truncation, and replay.  A replica has one only
when it logs.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, Prefix
from repro.durable import log as durable_log
from repro.durable.checkpoint import Checkpoint
from repro.durable.log import LogRecord
from repro.durable.store import ReplicaDurability
from repro.gcs import Batch, Message, ViewChange
from repro.net.network import ChannelClosed
from repro.sim import Gate, wait_until


class ReplicaLog:
    """One replica's writeset log, checkpoints and replay; ``replica``
    is the :class:`MiddlewareReplica` whose engine, certifier and
    outcomes they rebuild."""

    def __init__(self, replica, durable: ReplicaDurability):
        self.replica = replica
        self.wslog = durable.log
        self.checkpoints = durable.checkpoints
        #: contiguous prefix of log records whose effects are installed
        #: locally (checkpoints snapshot at its top); entries commit out
        #: of log order when non-conflicting
        self.applied = Prefix()
        self.seq_of_gid: dict[str, int] = {}
        self.flush_gate = Gate(name=f"{replica.name}.log-flush")
        #: what a restored image already covers: records at or below
        #: ``_cert_floor`` (its log tip) went through its certifier, and
        #: the ws seqs in ``_skip`` are in its row images
        self._cert_floor = 0
        self._skip: frozenset = frozenset()
        for path in self.checkpoints.unreadable:
            replica._emit("checkpoint_unreadable", path=str(path))

    def can_replay(self) -> bool:
        """Can our own durable state rebuild us: does the log still reach
        down to our newest checkpoint (with none, to its first record)?"""
        checkpoint = self.checkpoints.latest()
        return self.wslog.can_serve_from(checkpoint.seq if checkpoint else 0)

    # ------------------------------------------------------------ appends

    def append_writeset(self, gid: str, tid: int, sender: str, ops) -> LogRecord:
        """Log a certified writeset, in validation order: every replica
        appends the identical record at the same seq."""
        record = LogRecord.ws(self.wslog.next_seq, gid, tid, sender, ops)
        self.wslog.append(record)
        self.seq_of_gid[gid] = record.seq
        self.flush_gate.notify_all()
        return record

    def append_ddl(self, sql: str) -> None:
        record = LogRecord.ddl(self.wslog.next_seq, sql)
        self.wslog.append(record)
        self.applied.mark(record.seq)
        self.flush_gate.notify_all()

    def committed(self, gid: str) -> None:
        """A certified writeset committed locally: extend the applied prefix."""
        seq = self.seq_of_gid.pop(gid, None)
        if seq is not None:
            self.applied.mark(seq)

    def genesis(self, *makers) -> None:
        """Record bootstrap schema or rows so the log is replayable from
        seq 1; each ``make_record(seq)`` of ``makers`` builds its record
        at our next seq, and all of them are written and forced together."""
        first = self.wslog.next_seq
        records = [make_record(seq) for seq, make_record in enumerate(makers, first)]
        self.wslog.append_durable(*records)
        for record in records:
            self.applied.mark(record.seq)

    # ----------------------------------------------------- flush, checkpoints

    def _charge_disk(self, seconds: float) -> Generator[Any, Any, None]:
        disk = self.replica.node.disk
        if disk is not None and seconds > 0:
            yield from disk.use(seconds)

    def flush_loop(self) -> Generator[Any, Any, None]:
        """Make appended log records durable, group-commit style: one
        disk charge, and on disk one ``write`` + one ``fsync``, per run
        of records staged when the flush starts.

        Off the reply path: a commit is acknowledged once certified, and
        durability travels as the ``durable_seq`` watermark on our next
        multicast.  The ``fsync`` runs through ``sim.run_blocking`` (the
        wall runtime's I/O thread), so it does not stall the loop that
        every other replica and client shares; ``durable_seq`` advances
        only once it returns.  A failing force kills this process, which
        is not a daemon, so the run aborts instead of going on without
        durability.
        """
        replica = self.replica
        while True:
            yield from wait_until(self.flush_gate, lambda: bool(self.wslog.tail))
            flushed = yield from self.wslog.flush(
                self._charge_disk, replica.sim.run_blocking
            )
            if flushed and replica.member.alive:
                # the ack piggybacks on our next multicast and feeds the
                # stability watermark that gates log truncation
                replica.member.ack_durable(self.wslog.durable_seq)
                replica._count("durable.log_flushes")

    def checkpoint_loop(self, interval: float) -> Generator[Any, Any, None]:
        """Checkpoint every ``interval``, then truncate the log.
        Truncation never passes the newest checkpoint, so it needs no
        timer of its own; segments the stability watermark frees later
        go on the next tick."""
        while True:
            yield self.replica.sim.sleep(interval, weak=True)
            self.take_checkpoint()
            self.truncate()

    def take_checkpoint(self) -> Checkpoint:
        """Snapshot the engine at the applied log prefix (atomic)."""
        replica = self.replica
        checkpoint = replica.recovery.image(self.applied.top, self.applied.beyond)
        self.checkpoints.save(checkpoint)
        replica._emit(
            "checkpoint", seq=checkpoint.seq, csn=checkpoint.csn, nbytes=checkpoint.nbytes
        )
        replica._count("durable.checkpoints")
        return checkpoint

    def truncate(self) -> int:
        """GC log segments below the stability watermark.

        Capped at our own latest checkpoint: records above it are what a
        local replay (cold start, delta recovery) rebuilds from, so they
        stay even when cluster-stable.  No checkpoint -> no truncation.
        """
        checkpoint = self.checkpoints.latest()
        if checkpoint is None:
            return 0
        stable = self.replica.validation.gc_floor.stability.stable_seq()
        floor = min(stable, checkpoint.seq)
        dropped = self.wslog.truncate_to(floor)
        if dropped:
            self.replica._emit("log_truncated", floor=floor, dropped=dropped)
            self.replica._count("durable.truncated_records", dropped)
        return dropped

    # ----------------------------------------------------------------- replay

    def rebase(self, image: Checkpoint) -> None:
        """Our log below ``image.seq`` is superseded by a donor's row
        images (its full state or its checkpoint): realign it so future
        appends stay seq-aligned with the cluster."""
        self.wslog.rebase(image.seq)
        self.resume_at(image)

    def resume_at(self, image: Checkpoint) -> None:
        """Replay continues above a restored ``image``.  Its certifier
        window was pruned up to its floor; replayed records all sit
        above it (floor <= stable tid <= any logged suffix), so the
        restored state stays decision-identical."""
        self.applied = Prefix(image.seq, image.applied_beyond)
        self._cert_floor = image.cert_seq
        self._skip = frozenset(image.applied_beyond)

    def _replay_record(self, record: LogRecord) -> None:
        """Re-apply one log record, minus what a restored checkpoint
        already covers (``_cert_floor``, ``_skip``)."""
        replica = self.replica
        if record.kind != durable_log.WS:
            if record.seq > self._cert_floor:
                record.install(replica.db)
            self.applied.mark(record.seq)
            return
        if record.seq > self._cert_floor:
            # the logged pass lands the certifier (tombstones included)
            # in exactly the state it had at this seq
            replica.validation.certifier.record_pass(record.tid, record.ops)
        if record.seq not in self._skip:
            record.install(replica.db)
        replica.recovery.replayed.append((record.gid, record.keys))
        replica.in_doubt.note({record.gid: protocol.COMMITTED})
        self.applied.mark(record.seq)

    def replay(self, records, append=None) -> int:
        """The one replay loop.  Records from our own log just replay;
        with ``append``, records at or below our tip are skipped (we
        already hold them) and the rest are logged by ``append`` first.
        Returns how many records replayed."""
        replayed = 0
        for record in records:
            if append is not None:
                if record.seq <= self.wslog.tip_seq:
                    continue
                append(record)
            self._replay_record(record)
            replayed += 1
        return replayed

    def replay_local(self) -> int:
        """Rebuild from our own durable state: newest checkpoint (if any)
        plus the log suffix above it.  Returns the replay start seq."""
        checkpoint = self.checkpoints.latest()
        start = 0
        if checkpoint is not None:
            self.replica.recovery.restore(checkpoint)
            self.resume_at(checkpoint)
            start = checkpoint.seq
        self.replay(self.wslog.records_after(start))
        return start

    def cold_start(self) -> None:
        """Rebuild after a full stop.  A replica whose own state cannot
        replay stays empty here; the cluster levels it by a full state
        (``SIRepCluster.cold_restart``)."""
        self.wslog.drop_tail()
        if self.can_replay():
            start = self.replay_local()
            recovery = self.replica.recovery
            recovery.stats = {
                "mode": "cold",
                "records": len(recovery.replayed),
                "checkpoint": start > 0,
            }

    def catch_up(self, records) -> int:
        """Append-and-replay records beyond our tip (cold-restart leveling
        from a peer whose log reaches further).  Bootstrap path: records
        go down write-through, like genesis records, all in one write
        and one force per segment file."""
        records = [record for record in records if record.seq > self.wslog.tip_seq]
        self.wslog.append_durable(*records)
        return self.replay(records)


class Recovery:
    """The recovery handshake of one middleware replica, both sides, and
    what only it and the offline audit read: whether our state is
    installed, what a recovery or cold start replayed, and its stats."""

    def __init__(self, replica, recover_from: Optional[str], mode: Optional[str], on_recovered):
        self.replica = replica
        self.recover_from = recover_from
        self.on_recovered = on_recovered
        #: False while a recovery waits for its donor's state
        self.installed = recover_from is None
        self.stats: dict[str, Any] = {}
        #: (gid, writeset keys) of log records replayed into this engine;
        #: the cluster synthesizes audit prefix events from these
        self.replayed: list[tuple[str, frozenset]] = []
        #: False once any checkpoint or full state contributed to this
        #: replica's state (its prefix is then row images, not transactions)
        self.audit_complete = True
        #: our sync marker.  It asks for a delta above our log tip (which
        #: cannot move while we recover) unless ``mode`` is "full" or our
        #: own state cannot replay; without ``from_seq``, a full state
        self.sync = None
        if recover_from is not None:
            log = replica.log
            delta = log is not None and mode in (None, "delta") and log.can_replay()
            self.sync = protocol.SyncMessage(
                target=replica.name, donor=recover_from,
                from_seq=log.wslog.tip_seq if delta else None,
            )

    # ------------------------------------------------------------- joiner

    def phase(self) -> Generator[Any, Any, None]:
        """Synchronize with a donor at a total-order point.

        Deliveries up to our sync marker are covered by the donor's
        snapshot; deliveries after it are buffered and replayed once the
        state is installed.  If the donor crashes mid-handshake, the
        view change names the survivors and the handshake restarts with
        a new donor (the state transfer arrives through the GCS inbox so
        crash, marker, and state race in one ordered stream).  The new
        donor is never a member whose own sync marker we saw: it may be
        waiting for a state itself, perhaps from us.
        """
        replica, sync = self.replica, self.sync
        donor, tracer = sync.donor, replica.tracer
        awaiting_state = False
        buffered: list[Message | Batch] = []
        recovering: set[str] = set()
        phase_started = replica.sim.now
        trace_id = f"{replica.gid_prefix}:recovery"
        span = None
        if tracer is not None:
            span = tracer.start(
                "recovery", trace_id, replica=replica.name,
                mode="full" if sync.from_seq is None else "delta", donor=donor,
            )
        while True:
            item = yield replica.member.deliver()
            if isinstance(item, protocol.Transfer):
                if awaiting_state and item.donor == donor:
                    if span is not None:
                        tracer.record(
                            "transfer_wait", trace_id, start=phase_started,
                            end=replica.sim.now, parent=span.span_id, replica=replica.name,
                        )
                    self.install(item)
                    self._finish()
                    if span is not None:
                        tracer.record(
                            "state_apply", trace_id, start=replica.sim.now,
                            parent=span.span_id, replica=replica.name,
                        )
                        tracer.finish(span, **self.stats)
                    for buffered_item in buffered:
                        replica.validation.handle(buffered_item)
                    return
                continue  # stale transfer from an abandoned handshake
            if isinstance(item, ViewChange):
                replica._on_view_change(item)
                if donor in item.crashed:
                    candidates = [
                        m for m in item.members
                        if m != replica.name and m not in recovering
                    ]
                    if candidates:
                        donor = candidates[0]
                        awaiting_state = False
                        buffered.clear()
                        # the retarget keeps from_seq: our durable log
                        # position is unchanged, so the new donor ships
                        # the same delta the crashed one never finished
                        replica.member.multicast(sync._replace(donor=donor))
                        replica._emit("recovery_retarget", donor=donor)
                continue
            if isinstance(item, Batch):
                # batches carry only writesets (sync markers are never
                # batched), so placement vs our sync point is all that
                # matters: before it → covered by the donor snapshot
                if awaiting_state:
                    buffered.append(item)
                continue
            payload = item.payload
            if payload.kind == protocol.SYNC:
                if payload.target != replica.name:
                    recovering.add(payload.target)
                elif payload.donor == donor:
                    # the donor's state covers every delivery before this one
                    replica.validation.feed_seq = item.seq
                    awaiting_state = True
                    continue
            if awaiting_state:
                # ordered after our sync point: ours to process once the
                # snapshot is installed
                buffered.append(item)
            # else: ordered before the sync point — in the donor snapshot

    def restore(self, image: Checkpoint) -> None:
        """The one restore of a state image: engine rows and DDL,
        certifier (its salvage mode ours) and outcomes.  Its history is
        row images, not transactions, so this incarnation leaves the
        offline audit."""
        replica = self.replica
        replica.db.install_snapshot(image.ddl, image.rows, image.csn)
        certifier = Certifier.from_wire(image.certifier_state)
        certifier.salvage = replica.salvage
        replica.validation.certifier = certifier
        replica.in_doubt.note(image.outcomes)
        self.audit_complete = False

    def install(self, transfer: protocol.Transfer) -> None:
        """Install a donor's transfer and set our recovery stats: a full
        or delta recovery, or the cold-restart leveling of a replica
        whose own state cannot replay (a full transfer).

        A delta without an image rests on our *own* durable log below
        ``from_seq`` — real replayable transactions — and the donor
        contributes only the records we missed, so the whole history
        stays auditable.  An image replaces our log below its seq.  A
        donor's checkpoint (our log was outrun by truncation) becomes
        our own restart point; a full image does not, since its pending
        writesets, which enter through the to-commit queue, are not in
        its rows.
        """
        replica, log, image = self.replica, self.replica.log, transfer.image
        full = transfer.from_seq is None
        if image is None:
            log.replay_local()
        else:
            self.restore(image)
            if log is not None:
                log.rebase(image)
                if not full:
                    log.checkpoints.save(image)
        for record in transfer.pending:
            replica.manager.enqueue(Entry(record, local_txn=None))
        transferred = 0
        if not full:
            transferred = log.replay(transfer.records, log.wslog.append)
            log.flush_gate.notify_all()
        replica.in_doubt.note(transfer.outcomes)
        nbytes = transfer.nbytes()
        if full:
            replica._emit(
                "recovery_state_installed", donor=transfer.donor,
                pending=len(transfer.pending), incarnation=replica.incarnation,
            )
            self.stats = dict(
                mode="full", donor=transfer.donor, from_seq=image.seq,
                records=sum(len(rows) for rows in image.rows.values()),
                bytes=nbytes, checkpoint=False,
            )
            return
        replica._emit(
            "recovery_delta_installed", donor=transfer.donor, from_seq=transfer.from_seq,
            records=transferred, nbytes=nbytes, checkpoint=image is not None,
            incarnation=replica.incarnation,
        )
        replica._count("recovery.delta_records", transferred)
        self.stats = dict(
            mode="delta", donor=transfer.donor, from_seq=transfer.from_seq,
            records=transferred, bytes=nbytes, checkpoint=image is not None,
        )

    def _finish(self) -> None:
        """Both install paths end here: serve clients, answer discovery,
        and let the cluster re-admit this incarnation."""
        replica = self.replica
        self.installed = True
        if replica.discovery is not None:
            replica.discovery.register(replica.host.address, accepts_load=replica._accepts_load)
        if self.on_recovered is not None:
            self.on_recovered(replica)

    def resume_incarnation(self) -> None:
        """After a cold restart, issue gids above every incarnation of
        ours whose gids we hold (replayed records, restored outcomes), so
        no gid an earlier life certified is issued again.  Gids of
        read-only or locally aborted transactions leave no trace; their
        reuse is harmless."""
        replica = self.replica
        held = itertools.chain(
            (gid for gid, _keys in self.replayed), replica.in_doubt.outcomes
        )
        homes = (gid.split(":", 1)[0].partition(".") for gid in held)
        replica.incarnation = 1 + max(
            (int(number or 0) for home, _dot, number in homes if home == replica.name),
            default=0,
        )
        replica.gid_prefix = f"{replica.name}.{replica.incarnation}"

    # -------------------------------------------------------------- donor

    def on_sync_request(self, sync: protocol.SyncMessage) -> None:
        """Capture the state a sync marker asks of us at this total-order
        point and ship it to the recovering replica (atomic: no yields)."""
        replica = self.replica
        target = sync.target
        if sync.donor != replica.name or target == replica.name:
            return
        transfer = self.transfer(sync.from_seq)
        if transfer.from_seq is None:
            replica._emit(
                "recovery_state_sent", target=target,
                pending=len(transfer.pending), ddl=len(transfer.image.ddl),
            )
        else:
            replica._emit(
                "recovery_delta_sent", target=target, from_seq=transfer.from_seq,
                records=len(transfer.records), nbytes=transfer.nbytes(),
                checkpoint=transfer.image is not None,
            )
        replica.sim.spawn(
            self._send_state(target, transfer), name=f"{replica.name}.state-transfer",
            daemon=True,
        )

    def transfer(self, from_seq: Optional[int]) -> protocol.Transfer:
        """The one choice between a delta and a full state.  A marker's
        ``from_seq`` (the joiner's log tip) asks for our log above it; if
        truncation already dropped that range, our newest checkpoint
        plus the log above *it*; with neither, or no ``from_seq``, our
        full state: the image at our log tip plus our to-commit queue."""
        replica, log = self.replica, self.replica.log
        image = None
        if from_seq is not None and not log.wslog.can_serve_from(from_seq):
            if log.can_replay():
                image = log.checkpoints.latest()
                from_seq = image.seq
            else:
                from_seq = None
        outcomes = replica.in_doubt.outcomes
        if from_seq is None:
            return protocol.Transfer(
                donor=replica.name, from_seq=None, records=(), image=self.image(),
                pending=tuple(entry.record for entry in replica.manager.queue),
                outcomes={},
            )
        if image is not None:
            outcomes = {
                gid: outcome for gid, outcome in outcomes.items()
                if image.outcomes.get(gid) != outcome
            }
        return protocol.Transfer(
            donor=replica.name, from_seq=from_seq,
            records=tuple(log.wslog.records_after(from_seq)),
            image=image, pending=(), outcomes=dict(outcomes),
        )

    def image(self, seq: Optional[int] = None, applied_beyond=()) -> Checkpoint:
        """Our state at applied log position ``seq``, captured atomically
        (no yields): a checkpoint, or without ``seq`` the full image at
        our log tip (0 without a log) that a joiner or a snapshot-joined
        reader installs."""
        replica = self.replica
        db, wslog = replica.db, replica.wslog
        tip = wslog.tip_seq if wslog is not None else 0
        return Checkpoint.capture(
            seq=tip if seq is None else seq, cert_seq=tip,
            applied_beyond=applied_beyond, csn=db.csn, ddl=db.ddl_log,
            rows=db.export_committed(), certifier=replica.validation.certifier,
            outcomes=replica.in_doubt.outcomes,
        )

    def _send_state(self, target: str, transfer) -> Generator[Any, Any, None]:
        replica = self.replica
        try:
            channel = replica.host.network.connect(replica.host, target)
        except ChannelClosed:
            return  # recovering replica died again; a later attempt will retry
        channel.client_end.send(transfer)
        yield replica.sim.sleep(0.0)
        channel.close()
