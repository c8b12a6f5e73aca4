"""Fig. 3(b): the centralized-replicated middleware (primary + backup).

The paper sketches this architecture as the middle option between a
single centralized middleware (a single point of failure) and the fully
decentralized SI-Rep, and notes why its failover is delicate: "At the
time the primary crashes, a given transaction Ti might be committed at
some DB replicas, active at others, and not even started at some.  The
backup has to make sure that such transactions are eventually committed
at all replicas."

Here the primary runs the SRCA certification flow over *all* database
replicas (which live on their own hosts and survive a middleware crash);
certification metadata travels to the backup through the same
uniform-reliable total-order channel as SRCA-Rep's writesets, so:

* a writeset that any database may have committed was sequenced, hence
  the backup knows it (uniform delivery);
* on takeover the backup aborts the orphaned active transactions at each
  database ("databases abort the active transaction on the connection"),
  re-applies every certified writeset a database is missing
  (idempotently, keyed by transaction identifier), and only then starts
  serving clients.

The unmodified SI-Rep driver talks to it: discovery, failover, and the
in-doubt inquiry protocol are the same wire protocol.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.cluster import ClusterConfig, Comparator
from repro.core.replica import ReplicaManager
from repro.core.session import InDoubt, Session, accept_loop, execute_reply, session_loop
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, WsRecord
from repro.gcs import Message, ViewChange
from repro.sim.sync import OneShot
from repro.storage import Database


class _Middleware:
    """One middleware process (primary or backup) of Fig. 3(b)."""

    def __init__(self, system: "PrimaryBackupSystem", name: str, primary: bool):
        self.system = system
        self.sim = system.sim
        self.name = name
        self.is_primary = primary
        self.active = primary  # the backup is passive until takeover
        self.alive = True
        self.certifier = Certifier()
        #: per-database commit machinery; the backup builds its own
        #: managers at takeover (the primary's die with it)
        self.managers: list[ReplicaManager] = (
            [ReplicaManager(self.sim, node) for node in system.nodes]
            if primary
            else []
        )
        #: every certified record in tid order (the backup's redo log).
        #: Unbounded by design here: a production deployment would prune
        #: entries once the primary acknowledges them fully committed at
        #: every database (a watermark the passive backup lacks in this
        #: minimal protocol).
        self.certified: list[WsRecord] = []
        self.in_doubt = InDoubt(name)
        self._inquire = self.in_doubt.inquire
        self._local_pending: dict[str, tuple[Any, OneShot]] = {}
        self._gids = itertools.count(1)
        self._next_db = 0
        self.member = system.bus.join(name)
        self.host = system.network.register(name)
        self.active_sessions = 0
        self._processes = [
            self.sim.spawn(self._deliver_loop(), name=f"{name}.deliver", daemon=True),
            self.sim.spawn(self._accept_loop(), name=f"{name}.accept", daemon=True),
        ]
        if primary:
            system.discovery.register(self.host.address)

    # ------------------------------------------------------------- GCS side

    def _deliver_loop(self) -> Generator[Any, Any, None]:
        while True:
            item = yield self.member.deliver()
            if isinstance(item, ViewChange):
                self.in_doubt.view(item.crashed)
                if (
                    not self.is_primary
                    and not self.active
                    and self.system.primary_name in item.crashed
                ):
                    yield from self._take_over()
                continue
            assert isinstance(item, Message)
            if item.payload.kind == protocol.WS:
                self._on_writeset(item.payload)

    def _on_writeset(self, payload: protocol.WritesetMessage) -> None:
        record = payload.to_record()
        ok = self.certifier.validate(record)
        self.in_doubt.decide(record.gid, protocol.COMMITTED if ok else protocol.ABORTED)
        if ok:
            self.certified.append(record)
        local = self._local_pending.pop(record.gid, None)
        if not self.active:
            return  # the backup only mirrors metadata
        if not ok:
            if local is not None:
                local[1].resolve((protocol.ABORTED, None))
            return
        local_entry: Optional[Entry] = None
        local_txn = local[0] if local is not None else None
        for index, manager in enumerate(self.managers):
            is_home = local_txn is not None and local_txn.db is manager.db
            entry = Entry(record, local_txn=local_txn if is_home else None)
            if is_home:
                local_entry = entry
            manager.enqueue(entry)
        if local is not None:
            local[1].resolve((protocol.COMMITTED, local_entry))

    # ------------------------------------------------------------ takeover

    def _take_over(self) -> Generator[Any, Any, None]:
        """Resolve the primary's in-flight state, then serve clients."""
        self.active = True
        self.managers = [ReplicaManager(self.sim, node) for node in self.system.nodes]
        for node in self.system.nodes:
            # middleware connections broke: databases abort active txns
            node.db.abort_all_active()
        for record in self.certified:
            for manager in self.managers:
                if manager.db.has_committed(record.gid):
                    continue
                txn = manager.db.begin(gid=record.gid, remote=True)
                yield from manager.db.apply_writeset(txn, record.writeset)
                yield from manager.db.commit(txn)
        self.system.discovery.register(self.host.address)
        self.system.active_name = self.name

    # ---------------------------------------------------------- client side

    _accept_loop = accept_loop
    _session_loop = session_loop

    def _execute(
        self, session: Session, request: protocol.ExecuteReq
    ) -> Generator[Any, Any, protocol.ExecuteResp]:
        if session.txn is None or not session.txn.active:
            db = self._pick_db()
            session.txn = db.begin(gid=f"{self.name}:g{next(self._gids)}")
        txn = session.txn
        result = yield from txn.db.execute(txn, request.sql, request.params)
        return execute_reply(request, txn.gid, result)

    def _pick_db(self) -> Database:
        db = self.system.nodes[self._next_db % len(self.system.nodes)].db
        self._next_db += 1
        return db

    def _manager_of(self, db: Database) -> ReplicaManager:
        return next(m for m in self.managers if m.db is db)

    def _commit(
        self, session: Session, request: protocol.CommitReq
    ) -> Generator[Any, Any, protocol.CommitResp]:
        txn = session.txn
        if txn is None or not txn.active:
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        writeset = txn.db.get_writeset(txn)
        if not writeset:
            yield from txn.db.commit(txn)
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        manager = self._manager_of(txn.db)
        if manager.queue.overlaps(writeset):
            txn.db.abort(txn)
            self.in_doubt.note({txn.gid: protocol.ABORTED})
            return protocol.CommitResp(
                request.seq, protocol.ABORTED,
                error=("CertificationAborted", "local validation failed"),
            )
        cert = self.certifier.last_validated_tid
        waiter = OneShot()
        self._local_pending[txn.gid] = (txn, waiter)
        self.member.multicast(protocol.WritesetMessage(
            gid=txn.gid, writeset=writeset, cert=cert, sender=self.name
        ))
        outcome, entry = yield waiter.wait()
        if outcome == protocol.ABORTED:
            txn.db.abort(txn)
            return protocol.CommitResp(
                request.seq, protocol.ABORTED,
                error=("CertificationAborted", "global validation failed"),
            )
        yield entry.done.wait()
        return protocol.CommitResp(request.seq, protocol.COMMITTED, replicated=True)

    # --------------------------------------------------------------- control

    def crash(self) -> None:
        self.alive = False
        for manager in self.managers:
            manager.stop()
        for process in self._processes:
            process.kill()


class PrimaryBackupSystem(Comparator):
    """A Fig. 3(b) deployment: n databases, primary + backup middleware."""

    label = "primary/backup"

    def __init__(self, config: Optional[ClusterConfig] = None):
        super().__init__(config)
        for index in range(self.config.n_replicas):
            self._node(f"pbdb{index}")
        self.primary_name = "mw-primary"
        self.backup_name = "mw-backup"
        self.active_name = self.primary_name
        self.primary = _Middleware(self, self.primary_name, primary=True)
        self.backup = _Middleware(self, self.backup_name, primary=False)

    def crash_primary(self) -> None:
        """Kill the primary middleware; the databases stay up (their own
        machines), and the backup takes over after the view change."""
        self.discovery.unregister(self.primary.host.address)
        self.primary.crash()
        self.bus.crash(self.primary_name)
        self.network.crash(self.primary.host.address)
