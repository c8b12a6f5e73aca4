"""The log side of one durable middleware replica (DESIGN.md §4g).

A replica rebuilds from its own durable state — its newest checkpoint
plus the writeset log above it — and asks a donor only for what that
state lacks.  :class:`ReplicaLog` owns that rule and what it rests on:
the records Fig. 4's validation stage appends, the group flush,
checkpoints and truncation, local replay, and both sides of a delta
transfer.  A replica has one only when it logs.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.validation import Prefix
from repro.durable import log as durable_log
from repro.durable.checkpoint import Checkpoint
from repro.durable.log import LogRecord
from repro.durable.store import ReplicaDurability
from repro.sim import Gate, wait_until


class ReplicaLog:
    """One replica's writeset log, checkpoints, replay and delta
    transfers; ``replica`` is the :class:`MiddlewareReplica` whose
    engine, certifier and outcomes they rebuild."""

    def __init__(self, replica, durable: ReplicaDurability, mode: Optional[str]):
        self.replica = replica
        self.wslog = durable.log
        self.checkpoints = durable.checkpoints
        #: contiguous prefix of log records whose effects are installed
        #: locally (checkpoints snapshot at its top); entries commit out
        #: of log order when non-conflicting
        self.applied = Prefix()
        self.seq_of_gid: dict[str, int] = {}
        self.flush_gate = Gate(name=f"{replica.name}.log-flush")
        #: the install path a recovery asks for, decided once: a delta
        #: (the default) only while our own state can replay
        self.recovery_mode = (
            "delta" if mode in (None, "delta") and self.can_replay() else "full"
        )
        #: what a restored checkpoint already covers: records at or below
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

    def sync_from(self) -> Optional[int]:
        """The sync marker's ``from_seq``: our log tip for a delta (it
        cannot move while we recover), None for a full state."""
        return self.wslog.tip_seq if self.recovery_mode == "delta" else None

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

    def genesis(self, make_record) -> None:
        """Record bootstrap schema or rows so the log is replayable from
        seq 1; ``make_record(seq)`` builds the record at our next seq."""
        record = make_record(self.wslog.next_seq)
        self.wslog.append_durable(record)
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
        db = replica.db
        checkpoint = Checkpoint.capture(
            seq=self.applied.top, cert_seq=self.wslog.tip_seq,
            applied_beyond=self.applied.beyond,
            csn=db.csn, ddl=db.ddl_log, rows=db.export_committed(),
            certifier=replica.certifier, outcomes=replica.outcomes,
        )
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
        stable = self.replica.gc_floor.stability.stable_seq()
        floor = min(stable, checkpoint.seq)
        dropped = self.wslog.truncate_to(floor)
        if dropped:
            self.replica._emit("log_truncated", floor=floor, dropped=dropped)
            self.replica._count("durable.truncated_records", dropped)
        return dropped

    # ----------------------------------------------------------------- replay

    def rebase(self, seq: int) -> None:
        """Our log below ``seq`` is superseded by row images (a full
        state, a donor's checkpoint): realign it so future appends stay
        seq-aligned with the cluster."""
        self.wslog.rebase(seq)
        self.applied = Prefix(seq)

    def _restore_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Load a checkpoint; replay continues above ``checkpoint.seq``.
        The checkpointed window was pruned up to its floor; replayed
        records all sit above it (floor <= stable tid <= any logged
        suffix), so the restored state stays decision-identical."""
        replica = self.replica
        replica._restore(checkpoint, checkpoint.certifier(replica.salvage))
        self.applied = Prefix(checkpoint.seq, checkpoint.applied_beyond)
        self._cert_floor = checkpoint.cert_seq
        self._skip = frozenset(checkpoint.applied_beyond)

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
            replica.certifier.record_pass(record.tid, record.keys, record.ops)
        if record.seq not in self._skip:
            record.install(replica.db)
        replica.replayed.append((record.gid, record.keys))
        replica._note_outcomes({record.gid: protocol.COMMITTED})
        self.applied.mark(record.seq)

    def _replay(self, records, append=None) -> int:
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
            self._restore_checkpoint(checkpoint)
            start = checkpoint.seq
        self._replay(self.wslog.records_after(start))
        return start

    def cold_start(self) -> None:
        """Rebuild after a full stop.  A replica whose own state cannot
        replay stays empty here; the cluster levels it by a full state
        (``SIRepCluster.cold_restart``)."""
        self.wslog.drop_tail()
        if self.can_replay():
            start = self.replay_local()
            self.replica.recovery_stats = {
                "mode": "cold",
                "records": len(self.replica.replayed),
                "checkpoint": start > 0,
            }

    def catch_up(self, records) -> int:
        """Append-and-replay records beyond our tip (cold-restart leveling
        from a peer whose log reaches further).  Bootstrap path: records
        go down write-through, like genesis records."""
        return self._replay(records, self.wslog.append_durable)

    # ---------------------------------------------------------- delta transfer

    def build_delta(self, from_seq: int):
        """Donor side: everything the rejoiner misses, our log above
        ``from_seq``.  If truncation already dropped that range, fall
        back to our newest checkpoint plus the log above *it*; with
        neither available, a full state transfer."""
        checkpoint = None
        if not self.wslog.can_serve_from(from_seq):
            if not self.can_replay():
                return self.replica.full_state()
            checkpoint = self.checkpoints.latest()
            from_seq = checkpoint.seq
        return protocol.DeltaTransfer(
            donor=self.replica.name,
            from_seq=from_seq,
            records=tuple(self.wslog.records_after(from_seq)),
            outcomes=dict(self.replica.outcomes),
            checkpoint=checkpoint,
        )

    def install_delta(self, delta: protocol.DeltaTransfer) -> dict:
        """Recovering side: local replay + the shipped tail; returns the
        recovery stats.

        With no checkpoint in the transfer, our state below
        ``delta.from_seq`` comes from our *own* durable log — real
        replayable transactions — and the donor contributes only the
        records we missed, so the whole history stays auditable.
        """
        replica = self.replica
        checkpoint = delta.checkpoint
        if checkpoint is None:
            self.replay_local()
        else:
            # our log was outrun by truncation: restart from the donor's
            # checkpoint instead of our own prefix
            self.rebase(checkpoint.seq)
            self.checkpoints.save(checkpoint)
            self._restore_checkpoint(checkpoint)
        transferred = self._replay(delta.records, self.wslog.append)
        self.flush_gate.notify_all()
        replica._note_outcomes(delta.outcomes)
        nbytes = delta.nbytes()
        replica._emit(
            "recovery_delta_installed", donor=delta.donor, from_seq=delta.from_seq,
            records=transferred, nbytes=nbytes, checkpoint=checkpoint is not None,
            incarnation=replica.incarnation,
        )
        replica._count("recovery.delta_records", transferred)
        return dict(
            mode="delta", donor=delta.donor, from_seq=delta.from_seq,
            records=transferred, bytes=nbytes, checkpoint=checkpoint is not None,
        )
