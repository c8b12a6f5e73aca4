"""SRCA-Rep — the decentralized middleware replica of Fig. 4 (§5).

One :class:`MiddlewareReplica` runs in front of each database replica.
Clients connect over the network with the JDBC-like protocol; middleware
replicas exchange writesets via uniform-reliable total-order multicast and
certify them independently but identically (validation in delivery order).

Fig. 4's stages each have one owner: session handling is
:mod:`repro.core.session`, local validation and multicast (step I.2)
:class:`LocalValidation`, global validation in delivery order (step II)
:class:`GlobalValidation`, commit/apply :class:`~repro.core.replica.ReplicaManager`,
and the recovery handshake :class:`~repro.core.recovery.Recovery`.

``hole_sync=True`` is SRCA-Rep (adjustments 1+2+3, provides 1-copy-SI);
``hole_sync=False`` is SRCA-Opt (adjustments 1+2 only, §6.3).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.recovery import Recovery, ReplicaLog
from repro.core.replica import ReplicaManager, ReplicaNode
from repro.core.session import (
    InDoubt,
    Session,
    accept_loop,
    execute_reply,
    note_staleness_wait,
    session_loop,
)
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, GcFloor
from repro.durable import log as durable_log
from repro.durable.log import LogRecord
from repro.durable.store import ReplicaDurability
from repro.errors import CertificationAborted
from repro.gcs import Batch, DiscoveryService, GroupMember, Message, ViewChange
from repro.net.network import Host
from repro.obs import Observability, TraceContext
from repro.sim import Gate, Simulator, wait_until
from repro.sim.sync import OneShot
from repro.storage.writeset import UPDATE as UPDATE_OP


class GlobalValidation:
    """Fig. 4 step II: certify each delivered writeset in total order,
    log and publish the passes, and hand them to the commit stage.

    Besides the certifier and its GC floor it holds what the local stage
    registers for it to resolve: the waiters of our own commits and DDL,
    and their open "gcs" spans.
    """

    def __init__(self, replica: "MiddlewareReplica", stability):
        self.replica = replica
        self.sim, self.name, self.db = replica.sim, replica.name, replica.db
        self.manager, self.tracer = replica.manager, replica.tracer
        self.certifier = Certifier(salvage=replica.salvage)
        #: the certifier-window GC floor (DESIGN.md §4j); the stability
        #: watermark caps it only when this replica logs
        self.gc_floor = GcFloor(replica.name, stability)
        #: gid -> (local txn, OneShot) of our commits awaiting delivery
        self.local_pending: dict[str, tuple[Any, OneShot]] = {}
        #: gid -> the open "gcs" span of an in-flight local commit, closed
        #: when the writeset is certified (the session may be gone by then
        #: — e.g. crash-during-commit)
        self.gcs_spans: dict[str, Any] = {}
        #: ddl id -> waiter of a DDL statement of ours awaiting delivery
        self.ddl_pending: dict[int, OneShot] = {}
        #: certified-stream fan-out to the read tier (repro.reader): the
        #: total-order seq of the last delivery our state covers; a
        #: publish sets it, and so does our own sync marker
        self.feed_seq = 0

    def handle(self, item: Message | Batch) -> None:
        if isinstance(item, Batch):
            self.on_writesets(item.entries, batched=True)
            return
        kind = item.payload.kind
        if kind == protocol.WS:
            self.on_writesets((item,), batched=False)
        elif kind == protocol.DDL:
            self._on_ddl(item)
        elif kind == protocol.SYNC:
            self.replica.recovery.on_sync_request(item.payload)

    def _certify(self, message: Message) -> tuple[Optional[Entry], Optional[OneShot]]:
        """Validate one writeset delivery in delivery order — the shared
        core of the per-message and batched paths, so both reach
        identical decisions (its GCS timestamps only enrich traces).

        Returns ``(entry, local_waiter)``: the queue entry for a pass
        (``None`` for an abort, whose local waiter is resolved here) and
        the local commit waiter still to be resolved *after* the entry is
        enqueued.
        """
        replica = self.replica
        payload = message.payload
        gid, sender = payload.gid, payload.sender
        record = payload.to_record()
        ok = self.certifier.validate(record)
        log_record = None
        if ok and replica.log is not None:
            log_record = replica.log.append_writeset(gid, record.tid, sender, payload.writeset)
        self.gc_floor.stage(payload, log_record)
        if ok:
            # fan the certified item out to the read tier at its
            # delivery's seq; every replica publishes the identical item,
            # the feed keeps the first and drops the rest
            self.feed_seq = message.seq
            replica.feed.publish(LogRecord(
                message.seq, durable_log.WS, gid=gid, tid=record.tid,
                sender=sender, ops=tuple(payload.writeset),
            ))
        entry_ctx, deliver_span = self._trace_delivery(
            gid, sender, payload.ctx, ok, message.sent_at, message.sequenced_at
        )
        replica._count("validation.pass" if ok else "validation.abort")
        if ok and record.salvaged:
            replica._count("validation.salvaged")
        outcome = protocol.COMMITTED if ok else protocol.ABORTED
        replica._emit(
            "validation", gid=gid, sender=sender, outcome=outcome,
            tid=record.tid, salvaged=record.salvaged,
        )
        replica.in_doubt.decide(gid, outcome)
        if not ok:
            replica.commit_gate.notify_all()  # session-consistency waiters
        local = self.local_pending.pop(gid, None)
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
            span = self.gcs_spans.pop(gid, None)
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

    def on_writesets(self, messages, batched: bool) -> None:
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
            entry, waiter = self._certify(message)
            if entry is None:
                continue
            entries.append(entry)
            if waiter is not None:
                pending.append((waiter, entry))
        swept = self.gc_floor.end_delivery(self.certifier)
        if swept:
            self.replica._count("validation.gc_swept", swept)
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
        replica = self.replica
        payload = message.payload
        sql = payload.sql
        self.db.run_ddl(sql)
        self.feed_seq = message.seq
        replica.feed.publish(LogRecord(message.seq, durable_log.DDL, sql=sql))
        if replica.log is not None:
            replica.log.append_ddl(sql)
        if payload.sender == self.name:
            waiter = self.ddl_pending.pop(payload.ddl_id, None)
            if waiter is not None:
                waiter.resolve(None)


class LocalValidation:
    """Fig. 4 step I: run a session's statements on the local engine and,
    at commit, validate its writeset against the local to-commit queue
    (I.2.d, adjustment 1) and multicast it.  :meth:`execute` and
    :meth:`commit` are the replica's session handlers."""

    def __init__(self, replica: "MiddlewareReplica"):
        self.replica = replica
        self.sim, self.name, self.db = replica.sim, replica.name, replica.db
        self.manager, self.tracer = replica.manager, replica.tracer
        self.validation = replica.validation
        self.commits = 0
        self.aborts = 0
        self.readonly_commits = 0
        self._gids = itertools.count(1)
        self._ddl_ids = itertools.count(1)

    def execute(
        self, session: Session, request: protocol.ExecuteReq
    ) -> Generator[Any, Any, protocol.ExecuteResp]:
        replica = self.replica
        if not replica.recovery.installed:
            raise CertificationAborted(
                f"replica {self.name} is recovering; retry another replica"
            )
        if request.after_gid is not None:
            # "a transaction should only be assigned to a replica if all
            # previous transactions of the same client are already
            # committed at this replica" (§3) — enforced on failover.
            outcomes = replica.in_doubt.outcomes
            yield from wait_until(
                replica.commit_gate,
                lambda: request.after_gid in replica.committed_gids
                or outcomes.get(request.after_gid) == protocol.ABORTED,
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
            yield from wait_until(replica.commit_gate, lambda: self.db.csn >= token)
            note_staleness_wait(self, request, wait_started)
        if request.sql.lstrip().upper().startswith("CREATE"):
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
            session.gid = f"{replica.gid_prefix}:g{next(self._gids)}"
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
        return execute_reply(request, session.gid, result, session.txn.snapshot_csn)

    def _replicated_ddl(self, sql: str) -> Generator[Any, Any, None]:
        ddl_id = next(self._ddl_ids)
        waiter = OneShot()
        self.validation.ddl_pending[ddl_id] = waiter
        self.replica.member.multicast(
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

    def _abort(self, txn, request: protocol.CommitReq, root_span) -> protocol.CommitResp:
        """Local validation failed: the writeset never leaves this replica."""
        self.db.abort(txn)
        self.aborts += 1
        self.replica.in_doubt.note({txn.gid: protocol.ABORTED})
        self.replica._count("validation.local_abort")
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

    def commit(
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
            self.readonly_commits += 1
            if root_span is not None:
                self.tracer.finish(root_span, readonly=True)
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        replica, validation = self.replica, self.validation
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
                replica.salvage
                and defer_open
                and self._overlap_is_blind(writeset, blind)
            ):
                replica._count("validation.local_deferred")
                rehome = True
            else:
                return self._abort(txn, request, root_span)
        if not rehome and blind and self.db.defer_blind_ww:
            # commit-time re-check for the eager check the engine skipped:
            # a concurrent writer that committed before our multicast is
            # certifier-invisible, so catch it here
            for key in blind:
                if self.db.committed_after_snapshot(key, txn.snapshot_csn):
                    replica._count("validation.local_deferred")
                    rehome = True
                    break
        cert = validation.certifier.last_validated_tid
        waiter = OneShot()
        validation.local_pending[txn.gid] = (txn, waiter)
        ctx: Optional[TraceContext] = None
        if root_span is not None:
            self.tracer.record(
                "local_validation", txn.gid, start=self.sim.now,
                parent=root_span.span_id, replica=self.name,
            )
            gcs_span = self.tracer.start(
                "gcs", txn.gid, parent=root_span.span_id, replica=self.name
            )
            validation.gcs_spans[txn.gid] = gcs_span
            ctx = TraceContext(
                txn.gid, gcs_span.span_id, root_id=root_span.span_id
            )
        scount, acked = validation.gc_floor.stamp()
        replica.member.multicast(
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
            self.aborts += 1
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
            replica._count("validation.salvage_commits")
        yield entry.done.wait()
        if root_span is not None:
            self.tracer.finish(root_span)
        self.commits += 1
        # the certification tid is the session's read-your-writes token:
        # any replica (lazy or full) whose watermark/csn has reached it
        # includes this commit in its snapshots
        return protocol.CommitResp(
            request.seq, protocol.COMMITTED, replicated=True,
            csn=entry.record.tid,
        )


class MiddlewareReplica:
    """One SI-Rep middleware replica (Fig. 4's M^k): the assembly of its
    stages around one engine, one group member and one host."""

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
        #: opt-in SCAR-style abort salvage (cert refresh on blind-write
        #: conflicts); every replica of a deployment must agree on this
        self.salvage = salvage
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
        self.alive = True
        #: optional causal-span Tracer (repro.obs.trace)
        self.tracer = tracer
        #: optional Observability (registry counters + protocol event log)
        self.obs = obs
        #: §5.4 in-doubt resolution: outcomes decided here, views seen
        self.in_doubt = InDoubt(name, tracer, obs)
        self._inquire = self.in_doubt.inquire
        self.discovery = discovery
        #: load balancing (§8): decline discovery when at capacity
        self.max_sessions = max_sessions
        self.active_sessions = 0
        #: gids committed at the LOCAL database (session consistency)
        self.committed_gids: set[str] = set()
        self.commit_gate = Gate(name=f"{name}.commit-notify")
        self.manager.on_commit = self._note_local_commit
        self.feed = feed
        #: the log side (repro.durable's writeset log + checkpoints), only
        #: when this replica logs
        self.log = ReplicaLog(self, durable) if durable is not None else None
        self.wslog = durable.log if durable is not None else None
        self.recovery = Recovery(self, recover_from, recovery_mode, on_recovered)
        self.validation = GlobalValidation(
            self, member.bus.stability if durable is not None else None
        )
        self.local = LocalValidation(self)
        # the session handlers, bound so the session loop calls the stage
        self._execute = self.local.execute
        self._commit = self.local.commit
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
            member.multicast(self.recovery.sync)

    def status(self) -> protocol.ReplicaStatus:
        """What the cluster reads about this replica, in one record built
        in one step (no yield).  Nothing here grows with the database.
        The values are in the record's field order (positional: this runs
        on every adaptive-window tick)."""
        certifier, manager, db = self.validation.certifier, self.manager, self.db
        queue, holes, group_log = manager.queue, manager.holes, manager.group_log
        recovery, local = self.recovery, self.local
        logged = (None,) * 10
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
            not recovery.installed or not recovery.audit_complete,
            recovery.installed,
            self.active_sessions,
            local.commits,
            local.readonly_commits,
            local.aborts,
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
            recovery.stats,
            certifier.decisions,
            certifier.rejected,
            holes.oldest_hole_age(self.sim.now),
            holes.hole_count(),
            holes.start_attempts,
            holes.start_waits,
            group_log.synced_entries if group_log else 0,
            db.deferred_ww,
            self.validation.feed_seq,
            *logged,
        ))

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

    def _log_flusher(self) -> Generator[Any, Any, None]:
        """The log's group flush (:meth:`ReplicaLog.flush_loop`), run as
        this replica's ``log-flush`` process."""
        yield from self.log.flush_loop()

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
        """Fig. 4 step II in total delivery order.

        A recovering replica discards everything ordered before its own
        sync message (the donor's state transfer covers it), blocks until
        the state arrives, then resumes normal processing — deliveries in
        the meantime simply wait in the GCS inbox, preserving order.
        """
        if self.recovery.recover_from is not None:
            yield from self.recovery.phase()
        handle = self.validation.handle
        while True:
            item = yield self.member.deliver()
            if isinstance(item, ViewChange):
                self._on_view_change(item)
                continue
            if isinstance(item, protocol.Transfer):
                continue  # late transfer from an abandoned donor
            handle(item)

    def _on_view_change(self, view: ViewChange) -> None:
        self.validation.gc_floor.note_view(view.members)
        self.in_doubt.view(view.crashed)
        self._emit(
            "view_change",
            view_id=view.view_id,
            members=list(view.members),
            crashed=list(view.crashed),
            joined=list(view.joined),
        )

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

    # ------------------------------------------------------------------- control

    def crash(self) -> None:
        """Kill every middleware process (the cluster also takes down the
        network host, GCS membership, and the DB with it)."""
        self.alive = False
        self.manager.stop()
        for process in self._processes:
            process.kill()
