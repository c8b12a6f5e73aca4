"""SRCA-Rep — the decentralized middleware replica of Fig. 4 (§5).

One :class:`MiddlewareReplica` runs in front of each database replica.
Clients connect over the network with the JDBC-like protocol; middleware
replicas exchange writesets via uniform-reliable total-order multicast and
certify them independently but identically (validation in delivery order).

``hole_sync=True`` is SRCA-Rep (adjustments 1+2+3, provides 1-copy-SI);
``hole_sync=False`` is SRCA-Opt (adjustments 1+2 only, §6.3).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.recovery import ReplicaLog
from repro.core.replica import ReplicaManager, ReplicaNode
from repro.core.session import Session, accept_loop, session_loop
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, GcFloor
from repro.durable import log as durable_log
from repro.durable.log import LogRecord
from repro.durable.store import ReplicaDurability
from repro.errors import CertificationAborted
from repro.gcs import Batch, DiscoveryService, GroupMember, Message, ViewChange
from repro.net.network import ChannelClosed, Host
from repro.obs import Observability, TraceContext
from repro.sim import Gate, Simulator, wait_until
from repro.sim.sync import OneShot
from repro.storage.writeset import UPDATE as UPDATE_OP


class MiddlewareReplica:
    """One SI-Rep middleware replica (Fig. 4's M^k)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node: ReplicaNode,
        member: GroupMember,
        host: Host,
        feed,
        hole_sync: bool = True,
        group_commit: bool = False,
        discovery: Optional[DiscoveryService] = None,
        incarnation: int = 0,
        recover_from: Optional[str] = None,
        max_sessions: Optional[int] = None,
        obs: Optional[Observability] = None,
        durable: Optional[ReplicaDurability] = None,
        recovery_mode: Optional[str] = None,
        cold_start: bool = False,
        on_recovered=None,
        salvage: bool = False,
        tracer=None,
    ):
        self.sim = sim
        self.name = name
        self.node = node
        self.db = node.db
        # salvage owns the fate of blind write-write conflicts: let them
        # reach certification instead of dying at the eager version check
        self.db.defer_blind_ww = salvage
        self.member = member
        self.host = host
        self.hole_sync = hole_sync
        self.incarnation = incarnation
        self.gid_prefix = name if incarnation == 0 else f"{name}.{incarnation}"
        self.recover_from = recover_from
        self.recovered = False
        #: opt-in SCAR-style abort salvage (cert refresh on blind-write
        #: conflicts); every replica of a deployment must agree on this
        self.salvage = salvage
        self.certifier = Certifier(salvage=salvage)
        #: the certifier-window GC floor (DESIGN.md §4j); the stability
        #: watermark caps it only when this replica logs
        self.gc_floor = GcFloor(
            name, member.bus.stability if durable is not None else None
        )
        self.manager = ReplicaManager(
            sim, node, strict_serial=False, hole_sync=hole_sync,
            group_commit=group_commit, commit_pipeline=salvage, tracer=tracer,
        )
        if salvage:
            # backpressure: blind first-updater conflicts defer to
            # certification (where salvage re-homes them) only while the
            # to-commit queue is at most 16 deep; past that the engine's
            # eager aborts shed load, so commit latency stays bounded
            self.db.defer_gate = lambda queue=self.manager.queue: len(queue) <= 16
        #: gid -> ("committed"|"aborted") decided at global validation;
        #: consulted by in-doubt inquiries after a failover (§5.4).
        #: Bounded: an inquiry always concerns a transaction whose commit
        #: was in flight at the crash, so only a recent window is needed.
        self.outcomes: dict[str, str] = {}
        self.outcomes_cap = 50_000
        #: gid -> OneShot resolved by the delivery loop for local commits
        self._local_pending: dict[str, tuple[Any, OneShot]] = {}
        #: DDL statements the local replica is waiting to see delivered
        self._ddl_pending: dict[int, OneShot] = {}
        self._ddl_ids = itertools.count(1)
        self._gids = itertools.count(1)
        self.crashed_seen: set[str] = set()
        self.view_gate = Gate(name=f"{name}.view-gate")
        self.alive = True
        #: optional causal-span Tracer (repro.obs.trace)
        self.tracer = tracer
        #: gid -> the open "gcs" span of an in-flight local commit, closed
        #: by the delivery loop when the writeset is certified (the
        #: session may be gone by then — e.g. crash-during-commit)
        self._gcs_spans: dict[str, Any] = {}
        #: optional Observability (registry counters + protocol event log)
        self.obs = obs
        self.stats_commits = 0
        self.stats_aborts = 0
        self.stats_readonly_commits = 0
        self.discovery = discovery
        #: load balancing (§8): decline discovery when at capacity
        self.max_sessions = max_sessions
        self.active_sessions = 0
        #: gids committed at the LOCAL database (session consistency)
        self.committed_gids: set[str] = set()
        self.commit_gate = Gate(name=f"{name}.commit-notify")
        self.manager.on_commit = self._note_local_commit
        #: certified-stream fan-out to the read tier (repro.reader), and
        #: the total-order seq of the last delivery our state covers: a
        #: publish sets it, and so does our own sync marker
        self.feed = feed
        self.feed_seq = 0
        self.on_recovered = on_recovered
        #: (gid, writeset keys) of log records replayed into this engine;
        #: the cluster synthesizes audit prefix events from these
        self.replayed: list[tuple[str, frozenset]] = []
        #: False once any checkpoint contributed to this replica's state
        #: (its prefix is then row images, not replayable transactions)
        self.audit_complete = True
        self.recovery_stats: dict[str, Any] = {}
        #: the log side (repro.durable's writeset log + checkpoints), only
        #: when this replica logs; a recovery asks for a delta unless
        #: ``recovery_mode`` is "full" or our own state cannot replay
        self.log = (
            ReplicaLog(self, durable, recovery_mode) if durable is not None else None
        )
        self.wslog = durable.log if durable is not None else None
        self._processes = [
            sim.spawn(self._deliver_loop(), name=f"{name}.deliver", daemon=True),
            sim.spawn(self._accept_loop(), name=f"{name}.accept", daemon=True),
        ]
        if durable is not None:
            self._processes.append(
                sim.spawn(self._log_flusher(), name=f"{name}.log-flush")
            )
            interval = durable.config.checkpoint_interval
            if interval is not None:
                self._processes.append(
                    sim.spawn(
                        self.log.checkpoint_loop(interval),
                        name=f"{name}.checkpointer", daemon=True,
                    )
                )
        if recover_from is None:
            if cold_start and self.log is not None:
                self.log.cold_start()
            if discovery is not None:
                discovery.register(host.address, accepts_load=self._accepts_load)
        else:
            # ask the donor for a consistent state at a total-order point;
            # discovery registration happens once the state is installed.
            # A delta request reports how far our own durable log reaches —
            # the donor ships only the records after it; the local replay
            # up to that point is deferred until the transfer arrives.
            member.multicast(self._sync_payload(recover_from))

    def status(self) -> protocol.ReplicaStatus:
        """What the cluster reads about this replica, in one record built
        in one step (no yield).  Nothing here grows with the database.
        The values are in the record's field order (positional: this runs
        on every adaptive-window tick)."""
        certifier, manager, db = self.certifier, self.manager, self.db
        queue, holes, group_log = manager.queue, manager.holes, manager.group_log
        logged = (None,) * 10
        installed = self.recover_from is None or self.recovered
        if self.log is not None:
            wslog, checkpoints = self.wslog, self.log.checkpoints
            logged = (
                wslog.tip_seq, wslog.durable_seq, wslog.retained_records,
                wslog.durable_bytes, wslog.flushes, wslog.fsyncs, wslog.opens,
                checkpoints.saved, self.log.can_replay(),
                tuple(map(str, checkpoints.unreadable)),
            )
        return protocol.ReplicaStatus._make((
            self.alive,
            # out of the audit: still recovering, or holding row images
            not installed or not self.audit_complete,
            installed,
            self.active_sessions,
            self.stats_commits,
            self.stats_readonly_commits,
            self.stats_aborts,
            certifier.salvaged,
            certifier.salvage_rejects,
            certifier.window_size,
            certifier.floor,
            certifier.gc_collected,
            certifier.floor_aborts,
            len(queue),
            queue.appended_total,
            queue.appended_batches,
            manager.remote_apply_retries,
            group_log.flushes if group_log else 0,
            group_log.mean_group_size if group_log else 0.0,
            holes.hole_wait_fraction,
            db.commits,
            db.aborts,
            self.node.cpu.utilization() if self.node.cpu else 0.0,
            self.recovery_stats,
            certifier.decisions,
            certifier.rejected,
            holes.oldest_hole_age(self.sim.now),
            holes.hole_count(),
            holes.start_attempts,
            holes.start_waits,
            group_log.synced_entries if group_log else 0,
            db.deferred_ww,
            self.feed_seq,
            *logged,
        ))

    def _sync_payload(self, donor: str) -> protocol.SyncMessage:
        from_seq = self.log.sync_from() if self.log is not None else None
        return protocol.SyncMessage(target=self.name, donor=donor, from_seq=from_seq)

    def _accepts_load(self) -> bool:
        """'Replicas that are able to handle additional workload respond'
        (§5.4): decline discovery once the session cap is reached."""
        if self.max_sessions is None:
            return True
        return self.active_sessions < self.max_sessions

    def _note_local_commit(self, entry: Entry) -> None:
        self.committed_gids.add(entry.gid)
        self.commit_gate.notify_all()
        if self.log is not None:
            self.log.committed(entry.gid)

    def _note_outcomes(self, outcomes: dict[str, str]) -> None:
        """Record decided outcomes, evicting the oldest (dicts keep
        insertion order) beyond ``outcomes_cap``: an in-doubt inquiry
        concerns a commit in flight at a crash, far newer than those."""
        self.outcomes.update(outcomes)
        while len(self.outcomes) > self.outcomes_cap:
            del self.outcomes[next(iter(self.outcomes))]

    # ------------------------------------------------------------- durability

    def _log_flusher(self) -> Generator[Any, Any, None]:
        """The log's group flush (:meth:`ReplicaLog.flush_loop`), run as
        this replica's ``log-flush`` process."""
        yield from self.log.flush_loop()

    def _restore(self, image, certifier: Certifier) -> None:
        """The one restore of a state image, a checkpoint or a full state
        transfer: engine rows and DDL, certifier and outcomes.  Its
        history is row images, not transactions, so this incarnation
        leaves the offline audit."""
        self.db.install_snapshot(image.ddl, image.rows, image.csn)
        self.certifier = certifier
        self._note_outcomes(image.outcomes)
        self.audit_complete = False

    def resume_incarnation(self) -> None:
        """After a cold restart, issue gids above every incarnation of
        ours whose gids we hold (replayed records, restored outcomes), so
        no gid an earlier life certified is issued again.  Gids of
        read-only or locally aborted transactions leave no trace; their
        reuse is harmless."""
        held = itertools.chain((gid for gid, _keys in self.replayed), self.outcomes)
        homes = (gid.split(":", 1)[0].partition(".") for gid in held)
        self.incarnation = 1 + max(
            (int(number or 0) for home, _dot, number in homes if home == self.name),
            default=0,
        )
        self.gid_prefix = f"{self.name}.{self.incarnation}"

    # --------------------------------------------------------------- observability

    def _emit(self, event: str, **fields) -> None:
        """Log one protocol milestone (no-op without an Observability)."""
        if self.obs is not None:
            self.obs.events.emit(event, replica=self.name, **fields)

    def _count(self, name: str, n: int = 1) -> None:
        if self.obs is not None:
            self.obs.registry.counter(name).inc(n)

    # ------------------------------------------------------------------ GCS side

    def _deliver_loop(self) -> Generator[Any, Any, None]:
        """Fig. 4 step II: global validation in total delivery order.

        A recovering replica discards everything ordered before its own
        sync message (the donor's state transfer covers it), blocks until
        the state arrives, then resumes normal processing — deliveries in
        the meantime simply wait in the GCS inbox, preserving order.
        """
        if self.recover_from is not None:
            yield from self._recovery_phase()
        while True:
            item = yield self.member.deliver()
            if isinstance(item, ViewChange):
                self._on_view_change(item)
                continue
            if isinstance(item, (protocol.StateTransfer, protocol.DeltaTransfer)):
                continue  # late transfer from an abandoned donor
            self._handle_item(item)

    def _on_view_change(self, view: ViewChange) -> None:
        self.crashed_seen.update(view.crashed)
        self.gc_floor.note_view(view.members)
        self.view_gate.notify_all()
        self._emit(
            "view_change",
            view_id=view.view_id,
            members=list(view.members),
            crashed=list(view.crashed),
            joined=list(view.joined),
        )

    def _handle_item(self, item: Message | Batch) -> None:
        if isinstance(item, Batch):
            self._on_writesets(item.entries, batched=True)
            return
        assert isinstance(item, Message)
        kind = item.payload.kind
        if kind == protocol.WS:
            self._on_writesets((item,), batched=False)
        elif kind == protocol.DDL:
            self._on_ddl(item)
        elif kind == protocol.SYNC:
            self._on_sync_request(item.payload)

    def _recovery_phase(self) -> Generator[Any, Any, None]:
        """Synchronize with a donor at a total-order point.

        Deliveries up to our sync marker are covered by the donor's
        snapshot; deliveries after it are buffered and replayed once the
        state is installed.  If the donor crashes mid-handshake, the
        view change names the survivors and the handshake restarts with
        a new donor (the state transfer arrives through the GCS inbox so
        crash, marker, and state race in one ordered stream).
        """
        donor = self.recover_from
        sync = self._sync_payload(donor)
        awaiting_state = False
        buffered: list[Message | Batch] = []
        phase_started = self.sim.now
        recovery_span = None
        if self.tracer is not None:
            recovery_span = self.tracer.start(
                "recovery", f"{self.gid_prefix}:recovery", replica=self.name,
                mode="full" if sync.from_seq is None else "delta",
                donor=donor,
            )
        while True:
            item = yield self.member.deliver()
            if isinstance(item, (protocol.StateTransfer, protocol.DeltaTransfer)):
                if awaiting_state and item.donor == donor:
                    if recovery_span is not None:
                        self.tracer.record(
                            "transfer_wait", f"{self.gid_prefix}:recovery",
                            start=phase_started, end=self.sim.now,
                            parent=recovery_span.span_id, replica=self.name,
                        )
                    if isinstance(item, protocol.DeltaTransfer):
                        self._finish_recovery(self.log.install_delta(item))
                    else:
                        self._finish_recovery(self._install_state(item))
                    if recovery_span is not None:
                        self.tracer.record(
                            "state_apply", f"{self.gid_prefix}:recovery",
                            start=self.sim.now,
                            parent=recovery_span.span_id, replica=self.name,
                        )
                        self.tracer.finish(recovery_span, **self.recovery_stats)
                    for buffered_item in buffered:
                        self._handle_item(buffered_item)
                    return
                continue  # stale transfer from an abandoned handshake
            if isinstance(item, ViewChange):
                self._on_view_change(item)
                if donor in item.crashed:
                    candidates = [m for m in item.members if m != self.name]
                    if candidates:
                        donor = candidates[0]
                        awaiting_state = False
                        buffered.clear()
                        # the retarget keeps from_seq: our durable log
                        # position is unchanged, so the new donor ships
                        # the same delta the crashed one never finished
                        self.member.multicast(sync._replace(donor=donor))
                        self._emit("recovery_retarget", donor=donor)
                continue
            if isinstance(item, Batch):
                # batches carry only writesets (sync markers are never
                # batched), so placement vs our sync point is all that
                # matters: before it → covered by the donor snapshot
                if awaiting_state:
                    buffered.append(item)
                continue
            assert isinstance(item, Message)
            payload = item.payload
            if (
                payload.kind == protocol.SYNC
                and payload.target == self.name
                and payload.donor == donor
            ):
                # the donor's state covers every delivery before this one
                self.feed_seq = item.seq
                awaiting_state = True
                continue
            if awaiting_state:
                # ordered after our sync point: ours to process once the
                # snapshot is installed
                buffered.append(item)
            # else: ordered before the sync point — in the donor snapshot

    def _on_sync_request(self, sync: protocol.SyncMessage) -> None:
        """Donor side: capture a consistent snapshot at this total-order
        point and ship it to the recovering replica (atomic: no yields).

        A marker with ``from_seq`` carries the rejoiner's durable log
        position and asks for a delta; without it, the full state.
        """
        target = sync.target
        if sync.donor != self.name or target == self.name:
            return
        if sync.from_seq is not None:
            state = self.log.build_delta(sync.from_seq)
        else:
            state = self.full_state()
        if isinstance(state, protocol.DeltaTransfer):
            self._emit(
                "recovery_delta_sent",
                target=target,
                from_seq=state.from_seq,
                records=len(state.records),
                nbytes=state.nbytes(),
                checkpoint=state.checkpoint is not None,
            )
        else:
            self._emit(
                "recovery_state_sent",
                target=target,
                pending=len(state.pending),
                ddl=len(state.ddl),
            )
        self.sim.spawn(
            self._send_state(target, state),
            name=f"{self.name}.state-transfer",
            daemon=True,
        )

    def full_state(self) -> protocol.StateTransfer:
        """This replica's whole state, captured atomically (no yields):
        what a full-state joiner or a snapshot-joined reader installs."""
        return protocol.StateTransfer(
            donor=self.name,
            ddl=tuple(self.db.ddl_log),
            rows=self.db.export_committed(),
            certifier=self.certifier.clone(),
            pending=tuple(entry.record for entry in self.manager.queue),
            outcomes=dict(self.outcomes),
            log_seq=self.wslog.tip_seq if self.wslog is not None else 0,
            csn=self.db.csn,
        )

    def _send_state(self, target: str, state) -> Generator[Any, Any, None]:
        network = self.host.network
        try:
            channel = network.connect(self.host, target)
        except ChannelClosed:
            return  # recovering replica died again; a later attempt will retry
        channel.client_end.send(state)
        yield self.sim.sleep(0.0)
        channel.close()

    def _install_state(self, state: protocol.StateTransfer) -> dict:
        """Install a donor's whole state — a full-state recovery, or the
        cold-restart leveling of a replica whose own state cannot replay
        — and return the recovery stats."""
        self._restore(state, state.certifier)
        if self.log is not None:
            self.log.rebase(state.log_seq)
        for record in state.pending:
            self.manager.enqueue(Entry(record, local_txn=None))
        self._emit(
            "recovery_state_installed", donor=state.donor,
            pending=len(state.pending), incarnation=self.incarnation,
        )
        return dict(
            mode="full", donor=state.donor, from_seq=state.log_seq,
            records=sum(len(rows) for rows in state.rows.values()),
            bytes=state.nbytes(), checkpoint=False,
        )

    def _finish_recovery(self, stats: dict) -> None:
        """Both install paths end here: serve clients, answer discovery,
        and let the cluster re-admit this incarnation."""
        self.recovered = True
        self.recovery_stats = stats
        if self.discovery is not None:
            self.discovery.register(self.host.address, accepts_load=self._accepts_load)
        if self.on_recovered is not None:
            self.on_recovered(self)

    def _certify_writeset(
        self, message: Message
    ) -> tuple[Optional[Entry], Optional[OneShot]]:
        """Validate one writeset delivery in delivery order — the shared
        core of the per-message and batched paths, so both reach
        identical decisions (its GCS timestamps only enrich traces).

        Returns ``(entry, local_waiter)``: the queue entry for a pass
        (``None`` for an abort, whose local waiter is resolved here) and
        the local commit waiter still to be resolved *after* the entry is
        enqueued.
        """
        payload = message.payload
        gid, sender = payload.gid, payload.sender
        record = payload.to_record()
        ok = self.certifier.validate(record)
        log_record = None
        if ok and self.log is not None:
            log_record = self.log.append_writeset(gid, record.tid, sender, payload.writeset)
        self.gc_floor.stage(payload, log_record)
        if ok:
            # fan the certified item out to the read tier at its
            # delivery's seq; every replica publishes the identical item,
            # the feed keeps the first and drops the rest
            self.feed_seq = message.seq
            self.feed.publish(LogRecord(
                message.seq, durable_log.WS, gid=gid, tid=record.tid,
                sender=sender, ops=tuple(payload.writeset),
            ))
        entry_ctx, deliver_span = self._trace_delivery(
            gid, sender, payload.ctx, ok, message.sent_at, message.sequenced_at
        )
        self._count("validation.pass" if ok else "validation.abort")
        if ok and record.salvaged:
            self._count("validation.salvaged")
        self._emit(
            "validation",
            gid=gid,
            sender=sender,
            outcome=protocol.COMMITTED if ok else protocol.ABORTED,
            tid=record.tid,
            salvaged=record.salvaged,
        )
        self._note_outcomes({gid: protocol.COMMITTED if ok else protocol.ABORTED})
        self.view_gate.notify_all()  # an in-doubt inquiry may be waiting
        if not ok:
            self.commit_gate.notify_all()  # session-consistency waiters
        local = self._local_pending.pop(gid, None)
        if not ok:
            if local is not None:
                _txn, waiter = local
                waiter.resolve((protocol.ABORTED, None))
            # remote: simply discard (Fig. 4 II.2)
            return None, None
        local_txn = local[0] if local is not None else None
        if (record.salvaged or payload.rehome) and local_txn is not None:
            # Salvage shifted the snapshot past a conflicting predecessor
            # this local transaction began *before* — or local validation
            # deferred a blind overlap whose predecessor the certifier
            # cannot see (tid at or below our certificate); committing the
            # original txn handle would record b_T < c_pred < c_T with
            # overlapping writesets — an SI-ww anomaly — at this replica.
            # Re-home the commit as a remote-style apply instead: the
            # queue serialises it behind the predecessor, so the applying
            # txn begins only after the predecessor's commit.
            self.db.abort(local_txn)
            local_txn = None
            entry = Entry(
                record, local_txn=None, rehomed=True,
                ctx=entry_ctx, trace_span=deliver_span,
            )
            return entry, local[1]
        entry = Entry(record, local_txn=local_txn, ctx=entry_ctx, trace_span=deliver_span)
        return entry, (local[1] if local is not None else None)

    def _trace_delivery(
        self,
        gid: str,
        sender: str,
        ctx: Optional[TraceContext],
        ok: bool,
        sent_at: Optional[float],
        sequenced_at: Optional[float],
    ) -> tuple[Optional[TraceContext], Any]:
        """Span bookkeeping for one certified delivery.

        Home replica: the in-flight "gcs" span (multicast -> certified)
        closes here; the queue/commit continuation parents under the
        transaction's ROOT span (it outlives the gcs span).  Remote
        replica: a "deliver" span opens, *linked* (not parented — it
        outlives the home transaction) to the home gcs span; it stays
        open until the entry commits here.  Returns ``(entry_ctx,
        deliver_span)`` for the to-commit entry.
        """
        if self.tracer is None or ctx is None:
            return None, None
        now = self.sim.now
        status = "ok" if ok else "aborted"
        home = sender == self.name
        if home:
            span = self._gcs_spans.pop(gid, None)
            parent = ctx.root_id
        else:
            span = self.tracer.start(
                "deliver", gid, link=ctx.span_id, replica=self.name,
                start=sent_at if sent_at is not None else now, sender=sender,
            )
            parent = span.span_id
        if sent_at is not None and span is not None:
            self.tracer.record(
                "gcs_sequencing", gid, start=sent_at, end=sequenced_at,
                parent=span.span_id, replica=self.name,
            )
            self.tracer.record(
                "gcs_fanout", gid, start=sequenced_at, end=now,
                parent=span.span_id, replica=self.name,
            )
        self.tracer.record(
            "certify", gid, start=now, parent=parent,
            replica=self.name, status=status, outcome=status,
        )
        if span is not None and (home or not ok):
            self.tracer.finish(span, status=status)
        if not ok or parent is None:
            return None, None
        return TraceContext(gid, parent, root_id=parent), (None if home else span)

    def _on_writesets(self, messages, batched: bool) -> None:
        """Fig. 4 step II for one delivery, a message or a batch: certify
        each writeset in order, end the delivery for the GC floor,
        enqueue the passes in one step, then wake their local waiters.

        Decisions are exactly those of one-at-a-time delivery of the same
        messages in the same order; a batch amortises only the queue
        insertion, the hole registrations and the committer wakeup.
        """
        entries: list[Entry] = []
        pending: list[tuple[OneShot, Entry]] = []
        for message in messages:
            assert message.payload.kind == protocol.WS  # only writesets are batchable
            entry, waiter = self._certify_writeset(message)
            if entry is None:
                continue
            entries.append(entry)
            if waiter is not None:
                pending.append((waiter, entry))
        swept = self.gc_floor.end_delivery(self.certifier)
        if swept:
            self._count("validation.gc_swept", swept)
        if batched:
            self.manager.enqueue_batch(entries)
        elif entries:
            # one message is not a batch: the queue counts batch ingestions
            self.manager.enqueue(entries[0])
        for waiter, entry in pending:
            outcome = (
                protocol.SALVAGED if entry.record.salvaged else protocol.COMMITTED
            )
            waiter.resolve((outcome, entry))

    def _on_ddl(self, message: Message) -> None:
        payload = message.payload
        sql = payload.sql
        self.db.run_ddl(sql)
        self.feed_seq = message.seq
        self.feed.publish(LogRecord(message.seq, durable_log.DDL, sql=sql))
        if self.log is not None:
            self.log.append_ddl(sql)
        if payload.sender == self.name:
            waiter = self._ddl_pending.pop(payload.ddl_id, None)
            if waiter is not None:
                waiter.resolve(None)

    # --------------------------------------------------------------- client side

    # Fig. 4's session-handling stage is the shared front-end; bound on
    # this class itself (not inherited) because benchmarks/e2e/trace.py
    # shims ``vars(MiddlewareReplica)`` entries by name
    _accept_loop = accept_loop
    _session_loop = session_loop

    def _accept_transfer(self, state) -> None:
        """Recovery state arrives on a client channel; feed it into the
        GCS inbox so the recovery phase sees state, markers, and view
        changes as one ordered stream."""
        self.member.inbox.put(state)

    def _execute(
        self, session: Session, request: protocol.ExecuteReq
    ) -> Generator[Any, Any, protocol.ExecuteResp]:
        if self.recover_from is not None and not self.recovered:
            raise CertificationAborted(
                f"replica {self.name} is recovering; retry another replica"
            )
        if request.after_gid is not None:
            # "a transaction should only be assigned to a replica if all
            # previous transactions of the same client are already
            # committed at this replica" (§3) — enforced on failover.
            yield from wait_until(
                self.commit_gate,
                lambda: request.after_gid in self.committed_gids
                or self.outcomes.get(request.after_gid) == protocol.ABORTED,
            )
        if request.min_csn is not None and (
            session.txn is None or not session.txn.active
        ):
            # session token from the routed driver: the new snapshot must
            # include every certified commit up to min_csn.  The local
            # csn counts exactly the certified writesets committed here,
            # so it advances in lockstep with the certification tid.
            token = request.min_csn
            wait_started = self.sim.now
            yield from wait_until(self.commit_gate, lambda: self.db.csn >= token)
            if (
                self.tracer is not None
                and request.ctx is not None
                and self.sim.now > wait_started
            ):
                # routed-read fallback served here: the client blocked on
                # our csn catching up — same read-path phase as a lazy
                # reader's watermark wait
                self.tracer.record(
                    "staleness_wait",
                    request.ctx.trace_id,
                    start=wait_started,
                    link=request.ctx.span_id,
                    replica=self.name,
                    min_csn=token,
                )
        sql_upper = request.sql.lstrip().upper()
        if sql_upper.startswith("CREATE"):
            if session.txn is not None and session.txn.active:
                raise CertificationAborted("DDL is not allowed inside a transaction")
            yield from self._replicated_ddl(request.sql)
            return protocol.ExecuteResp(request.seq, ok=True, gid=session.gid)
        if session.txn is None or not session.txn.active:
            # JDBC has no explicit begin: the first statement starts the
            # transaction, synchronized with commits via the hole rule
            # (Fig. 4 step I.1.a).
            submitted_at = self.sim.now
            yield from self.manager.wait_local_start()
            session.gid = f"{self.gid_prefix}:g{next(self._gids)}"
            session.txn = self.db.begin(gid=session.gid)
            if self.tracer is not None:
                # the root covers the whole life, including any hole wait
                # *before* the gid existed (backdated to the submit time)
                session.root_span = self.tracer.start(
                    "txn", session.gid, replica=self.name, start=submitted_at
                )
                if self.sim.now > submitted_at:
                    self.tracer.record(
                        "hole_start_wait", session.gid, start=submitted_at,
                        parent=session.root_span.span_id, replica=self.name,
                    )
                session.exec_span = self.tracer.start(
                    "local_execution", session.gid,
                    parent=session.root_span.span_id, replica=self.name,
                )
        result = yield from self.db.execute(session.txn, request.sql, request.params)
        return protocol.ExecuteResp(
            request.seq,
            ok=True,
            gid=session.gid,
            rows=result.rows,
            columns=result.columns,
            rowcount=result.rowcount,
            snapshot_csn=session.txn.snapshot_csn,
        )

    def _replicated_ddl(self, sql: str) -> Generator[Any, Any, None]:
        ddl_id = next(self._ddl_ids)
        waiter = OneShot()
        self._ddl_pending[ddl_id] = waiter
        self.member.multicast(
            protocol.DdlMessage(ddl_id=ddl_id, sender=self.name, sql=sql)
        )
        yield waiter.wait()

    def _overlap_is_blind(self, writeset, blind: frozenset) -> bool:
        """True iff every key this writeset shares with a queued entry
        was written blindly — the only overlaps salvage may commute.
        One key-index probe per writeset key (no queue scan)."""
        return all(
            key in blind for key in self.manager.queue.shared_keys(writeset)
        )

    def _abort_local_validation(
        self, txn, request: protocol.CommitReq, root_span
    ) -> Generator[Any, Any, protocol.CommitResp]:
        yield from ()
        self.db.abort(txn)
        self.stats_aborts += 1
        self._note_outcomes({txn.gid: protocol.ABORTED})
        self._count("validation.local_abort")
        if root_span is not None:
            self.tracer.record(
                "local_validation", txn.gid, start=self.sim.now,
                parent=root_span.span_id, replica=self.name,
                status="aborted", outcome="aborted",
            )
            self.tracer.finish(root_span, status="aborted")
        return protocol.CommitResp(
            request.seq,
            protocol.ABORTED,
            error=("CertificationAborted", "local validation failed"),
        )

    def _commit(
        self, session: Session, request: protocol.CommitReq
    ) -> Generator[Any, Any, protocol.CommitResp]:
        txn = session.txn
        session.txn = None
        root_span, session.root_span = session.root_span, None
        exec_span, session.exec_span = session.exec_span, None
        if txn is None or not txn.active:
            # commit with no statements: trivially committed (empty txn)
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        if exec_span is not None:
            self.tracer.finish(exec_span)
        writeset = self.db.get_writeset(txn)
        if root_span is not None:
            self.tracer.record(
                "writeset_extract", txn.gid, start=self.sim.now,
                parent=root_span.span_id, replica=self.name,
                items=len(writeset),
            )
        if not writeset:
            yield from self.db.commit(txn)
            self.stats_readonly_commits += 1
            if root_span is not None:
                self.tracer.finish(root_span, readonly=True)
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        # Blind-write classification for certification salvage: a key is
        # blind iff it was UPDATEd without its value (or any other row
        # value) feeding the after image.  INSERTs are never blind (they
        # cannot be replayed over a predecessor's surviving row) and a
        # DELETE's target lookup already made it a dependent read.
        dependent = frozenset(txn.dependent_reads)
        blind = frozenset(
            op.key
            for op in writeset.ops
            if op.op == UPDATE_OP and op.key not in dependent
        )
        # Fig. 4 I.2.d: local validation against the local to-commit queue
        # (adjustment 1), atomically with the certificate read and the
        # multicast (no yields = wsmutex).  With salvage on, an overlap
        # confined to blind keys is deferred to global certification —
        # but the queued predecessor (and any writer that already applied
        # during our lifetime, invisible to the certifier because its tid
        # sits at or below our certificate) makes an in-place commit of
        # the local handle an SI-ww anomaly.  Such commits are flagged
        # ``rehome``: on a validation pass the home replica aborts the
        # local handle and applies the writeset remote-style, so the
        # recorded begin lands after every predecessor's commit.
        rehome = False
        if self.manager.queue.overlaps(writeset):
            defer_open = (
                self.db.defer_gate is None or self.db.defer_gate()
            )
            if (
                self.salvage
                and defer_open
                and self._overlap_is_blind(writeset, blind)
            ):
                self._count("validation.local_deferred")
                rehome = True
            else:
                return (yield from self._abort_local_validation(
                    txn, request, root_span
                ))
        if not rehome and blind and self.db.defer_blind_ww:
            # commit-time re-check for the eager check the engine skipped:
            # a concurrent writer that committed before our multicast is
            # certifier-invisible, so catch it here
            for key in blind:
                if self.db.committed_after_snapshot(key, txn.snapshot_csn):
                    self._count("validation.local_deferred")
                    rehome = True
                    break
        cert = self.certifier.last_validated_tid
        waiter = OneShot()
        self._local_pending[txn.gid] = (txn, waiter)
        ctx: Optional[TraceContext] = None
        if root_span is not None:
            self.tracer.record(
                "local_validation", txn.gid, start=self.sim.now,
                parent=root_span.span_id, replica=self.name,
            )
            gcs_span = self.tracer.start(
                "gcs", txn.gid, parent=root_span.span_id, replica=self.name
            )
            self._gcs_spans[txn.gid] = gcs_span
            ctx = TraceContext(
                txn.gid, gcs_span.span_id, root_id=root_span.span_id
            )
        scount, acked = self.gc_floor.stamp()
        self.member.multicast(
            protocol.WritesetMessage(
                gid=txn.gid, writeset=writeset, cert=cert, sender=self.name,
                ctx=ctx, readset=dependent, blind=blind, rehome=rehome,
                scount=scount, acked=acked,
            ),
            batchable=True,
        )
        outcome, entry = yield waiter.wait()
        if outcome == protocol.ABORTED:
            self.db.abort(txn)
            self.stats_aborts += 1
            if root_span is not None:
                self.tracer.finish(root_span, status="aborted")
            return protocol.CommitResp(
                request.seq,
                protocol.ABORTED,
                error=("CertificationAborted", "global validation failed"),
            )
        if outcome == protocol.SALVAGED:
            # certified via cert refresh: the delivery loop already
            # aborted our local txn handle and re-homed the entry as a
            # remote-style apply; from here the wait is identical
            self._count("validation.salvage_commits")
        yield entry.done.wait()
        if root_span is not None:
            self.tracer.finish(root_span)
        self.stats_commits += 1
        # the certification tid is the session's read-your-writes token:
        # any replica (lazy or full) whose watermark/csn has reached it
        # includes this commit in its snapshots
        return protocol.CommitResp(
            request.seq, protocol.COMMITTED, replicated=True,
            csn=entry.record.tid,
        )

    # ------------------------------------------------------------- failover side

    def _inquire(self, gid: str, crashed: str) -> Generator[Any, Any, str]:
        """§5.4 in-doubt resolution: answer only once we either saw the
        writeset or the view change reporting the old replica's crash."""
        span = None
        if self.tracer is not None:
            # the gid doubles as the trace id, so the inquiry lands in the
            # same trace as the in-doubt transaction it resolves
            span = self.tracer.start(
                "inquiry", gid, replica=self.name, crashed=crashed
            )
        yield from wait_until(
            self.view_gate,
            lambda: gid in self.outcomes or crashed in self.crashed_seen,
        )
        outcome = self.outcomes.get(gid, protocol.ABORTED)
        if span is not None:
            self.tracer.finish(span, outcome=outcome)
        self._emit("inquiry", gid=gid, crashed=crashed, outcome=outcome)
        self._count("failover.inquiries")
        return outcome

    # ------------------------------------------------------------------- control

    def crash(self) -> None:
        """Kill every middleware process (the cluster also takes down the
        network host, GCS membership, and the DB with it)."""
        self.alive = False
        self.manager.stop()
        for process in self._processes:
            process.kill()
