"""A Postgres-R(SI)-style comparator: replication inside the kernel [34].

§6.3: "We tested the system against Postgres-R [34] which provides
kernel-based eager replication.  The results were very similar to
SRCA-Rep since their main difference lies in the validation process while
the principal transaction execution is similar."

This module implements that comparator.  Like SRCA-Rep it executes a
transaction at one replica, multicasts the writeset with total order, and
certifies deterministically in delivery order.  The *kernel* differences:

* there is no middleware layer doing a pre-multicast local validation —
  the commit path of the database itself ships the writeset;
* when a remote writeset meets a row lock held by a local, not-yet-
  certified transaction, the kernel **aborts the local holder
  immediately** instead of waiting for it to reach its own validation
  (the kernel can kill its own backends; a middleware cannot, §4.3.1).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.cluster import ClusterConfig, Comparator
from repro.core.replica import ReplicaManager
from repro.core.session import Session, accept_loop, execute_reply, session_loop
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, WsRecord
from repro.errors import TransactionAborted
from repro.gcs import Message, ViewChange
from repro.sim.sync import OneShot


class _KernelReplica:
    """One replicated database process (DB + replication manager)."""

    def __init__(self, system: "KernelReplicatedSystem", index: int):
        self.system = system
        self.sim = system.sim
        self.name = f"KR{index}"
        self.node = system._node(self.name)
        self.db = self.node.db
        self.manager = ReplicaManager(self.sim, self.node, hole_sync=True)
        self.certifier = Certifier()
        self.member = system.bus.join(self.name)
        self.host = system.network.register(self.name)
        system.discovery.register(self.host.address)
        self._pending: dict[str, tuple[Any, OneShot]] = {}
        self._gids = itertools.count(1)
        self.active_sessions = 0
        self._processes = [
            self.sim.spawn(self._deliver_loop(), name=f"{self.name}.deliver", daemon=True),
            self.sim.spawn(self._accept_loop(), name=f"{self.name}.accept", daemon=True),
        ]
        self.local_aborts_by_remote = 0

    # ----------------------------------------------------------- replication

    def _deliver_loop(self) -> Generator[Any, Any, None]:
        while True:
            item = yield self.member.deliver()
            if isinstance(item, ViewChange):
                continue
            assert isinstance(item, Message)
            record = item.payload.to_record()
            ok = self.certifier.validate(record)
            local = self._pending.pop(record.gid, None)
            if not ok:
                if local is not None:
                    local[1].resolve((protocol.ABORTED, None))
                continue
            # kernel privilege: kill local uncertified writers in the way
            self._abort_conflicting_local_holders(record)
            local_txn = local[0] if local is not None else None
            entry = Entry(record, local_txn=local_txn)
            self.manager.enqueue(entry)
            if local is not None:
                local[1].resolve((protocol.COMMITTED, entry))

    def _abort_conflicting_local_holders(self, record: WsRecord) -> None:
        for key in record.writeset.keys:
            holder = self.db.locks.holder(key)
            if holder is None or not getattr(holder, "active", False):
                continue
            if holder.gid == record.gid:
                continue  # the certified transaction's own locks
            if holder.remote:
                continue  # another certified writeset: ordered via queue
            if holder.gid in self._pending:
                continue  # already multicast: its own validation decides
            self.db.abort(holder)
            self.local_aborts_by_remote += 1

    # ------------------------------------------------------------ client side

    _accept_loop = accept_loop
    _session_loop = session_loop

    def _execute(
        self, session: Session, request: protocol.ExecuteReq
    ) -> Generator[Any, Any, protocol.ExecuteResp]:
        if session.txn is not None and not session.txn.active:
            # killed by a conflicting replicated writeset between client
            # statements: surface it once
            session.txn = None
            raise TransactionAborted(
                "transaction aborted by a conflicting replicated writeset"
            )
        if session.txn is None:
            yield from self.manager.wait_local_start()
            session.txn = self.db.begin(gid=f"{self.name}:g{next(self._gids)}")
        txn = session.txn
        result = yield from self.db.execute(txn, request.sql, request.params)
        return execute_reply(request, txn.gid, result)

    def _commit(
        self, session: Session, request: protocol.CommitReq
    ) -> Generator[Any, Any, protocol.CommitResp]:
        txn = session.txn
        if txn is None or not txn.active:
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        writeset = self.db.get_writeset(txn)
        if not writeset:
            yield from self.db.commit(txn)
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        # no middleware-level local validation: the kernel multicasts
        # straight away and relies on delivery-order certification
        cert = self.certifier.last_validated_tid
        waiter = OneShot()
        self._pending[txn.gid] = (txn, waiter)
        self.member.multicast(protocol.WritesetMessage(
            gid=txn.gid, writeset=writeset, cert=cert, sender=self.name
        ))
        outcome, entry = yield waiter.wait()
        if outcome == protocol.ABORTED or not txn.active:
            # certification failed — or a remote writeset killed us while
            # our own was in flight
            if txn.active:
                self.db.abort(txn)
            return protocol.CommitResp(
                request.seq, protocol.ABORTED,
                error=("CertificationAborted", "kernel certification failed"),
            )
        yield entry.done.wait()
        return protocol.CommitResp(request.seq, protocol.COMMITTED, replicated=True)


class KernelReplicatedSystem(Comparator):
    """A Postgres-R(SI)-style cluster, driver-compatible."""

    label = "Postgres-R(SI)-style"

    def __init__(self, config: Optional[ClusterConfig] = None):
        super().__init__(config)
        self.replicas = [_KernelReplica(self, i) for i in range(self.config.n_replicas)]
