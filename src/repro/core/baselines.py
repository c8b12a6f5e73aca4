"""The evaluation baselines of §6.

* :class:`CentralizedSystem` — "it still uses our middleware but the
  middleware simply forwards requests to the single database and does not
  perform any concurrency control, writeset retrieval, etc."  Speaks the
  same wire protocol, so the unmodified SI-Rep driver connects to it.

* :class:`TableLockSystem` — a reimplementation of the replication
  protocol of [20] (Jiménez-Peris et al., ICDCS 2002) as described in
  §6.3: clients submit *whole transactions* as parametrised procedure
  calls that pre-declare the tables they access; the request is multicast
  in total order; every replica enqueues the transaction's *table-level*
  locks in delivery order; one replica (here: the client's local one)
  executes the SQL, extracts the writeset, and multicasts it; remote
  replicas apply it once their table locks are granted.  Two messages per
  transaction, one client round trip — but coarse-grained locking.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.core import protocol
from repro.core.cluster import ClusterConfig, Comparator
from repro.core.session import Session, accept_loop, execute_reply, session_loop
from repro.gcs import Message, ViewChange
from repro.sim import Event
from repro.sim.sync import OneShot


# ---------------------------------------------------------------------------
# Centralized baseline
# ---------------------------------------------------------------------------


class CentralizedSystem(Comparator):
    """One database, one passthrough middleware, same client protocol."""

    label = "centralized"

    def __init__(self, config: Optional[ClusterConfig] = None):
        super().__init__(config)
        self.name = "central"
        self.db = self._node(self.name).db
        self.host = self.network.register(self.name)
        self.discovery.register(self.host.address)
        self._gids = itertools.count(1)
        self.active_sessions = 0
        self._processes = [
            self.sim.spawn(self._accept_loop(), name="central.accept", daemon=True)
        ]

    _accept_loop = accept_loop
    _session_loop = session_loop

    def _execute(
        self, session: Session, request: protocol.ExecuteReq
    ) -> Generator[Any, Any, protocol.ExecuteResp]:
        if request.sql.lstrip().upper().startswith("CREATE"):
            self.db.run_ddl(request.sql)
            return protocol.ExecuteResp(request.seq, ok=True)
        if session.txn is None or not session.txn.active:
            session.txn = self.db.begin(gid=f"central:g{next(self._gids)}")
        txn = session.txn
        result = yield from self.db.execute(txn, request.sql, request.params)
        return execute_reply(request, txn.gid, result)

    def _commit(
        self, session: Session, request: protocol.CommitReq
    ) -> Generator[Any, Any, protocol.CommitResp]:
        txn = session.txn
        if txn is not None and txn.active:
            yield from self.db.commit(txn)
        return protocol.CommitResp(request.seq, protocol.COMMITTED)


# ---------------------------------------------------------------------------
# The protocol of [20]: table-level locks, whole-transaction requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Procedure:
    """A pre-registered transaction program.

    ``tables`` must list every table the program may touch — the [20]
    protocol's defining requirement.  ``statements`` maps the call
    parameters to the SQL statements to run.  ``lock_tables`` (optional)
    narrows the lock set per call from the parameters; the analysis in
    [20] determines the accessed tables of each invocation, so a program
    over 10 tables that touches 3 per call only locks those 3.
    """

    name: str
    tables: tuple[str, ...]
    statements: Callable[[tuple], list[tuple[str, tuple]]]
    readonly: bool = False
    lock_tables: Optional[Callable[[tuple], tuple]] = None

    def locks_for(self, params: tuple) -> tuple[str, ...]:
        if self.lock_tables is not None:
            return tuple(self.lock_tables(params))
        return self.tables


class _LockRequest:
    __slots__ = ("rid", "tables", "granted", "_missing")

    def __init__(self, rid: str, tables: tuple[str, ...]):
        self.rid = rid
        self.tables = tables
        self.granted = Event()
        self._missing = len(tables)


class OrderedTableLocks:
    """Table locks granted strictly in enqueue (delivery) order.

    A request enters the FIFO queue of every table it needs atomically;
    it is granted when it heads all of them.  Ordered atomic enqueue
    makes the scheme deadlock-free across replicas.
    """

    def __init__(self) -> None:
        self._queues: dict[str, deque[_LockRequest]] = {}

    def enqueue(self, request: _LockRequest) -> None:
        heads = 0
        for table in request.tables:
            queue = self._queues.setdefault(table, deque())
            queue.append(request)
            if queue[0] is request:
                heads += 1
        request._missing = len(request.tables) - heads
        if request._missing == 0:
            request.granted.set(None)

    def release(self, request: _LockRequest) -> None:
        for table in request.tables:
            queue = self._queues[table]
            assert queue[0] is request, "release out of grant order"
            queue.popleft()
            if queue:
                head = queue[0]
                head._missing -= 1
                if head._missing == 0:
                    head.granted.set(None)

    def waiting(self) -> int:
        return sum(max(0, len(q) - 1) for q in self._queues.values())


class _TableLockReplica:
    """One middleware/DB replica pair of the [20] system."""

    def __init__(self, system: "TableLockSystem", index: int):
        self.system = system
        self.sim = system.sim
        self.index = index
        self.name = f"TL{index}"
        self.db = system._node(self.name).db
        self.locks = OrderedTableLocks()
        self.member = system.bus.join(self.name)
        self.host = system.network.register(self.name)
        system.discovery.register(self.host.address)
        #: rid -> waiter for the client response at the origin replica
        self._pending: dict[str, OneShot] = {}
        #: rid -> writeset waiter at remote replicas
        self._ws_events: dict[str, Event] = {}
        self._requests: dict[str, _LockRequest] = {}
        self.active_sessions = 0
        self._processes = [
            self.sim.spawn(self._deliver_loop(), name=f"{self.name}.deliver", daemon=True),
            self.sim.spawn(self._accept_loop(), name=f"{self.name}.accept", daemon=True),
        ]

    # -- GCS side -----------------------------------------------------------------

    def _deliver_loop(self) -> Generator[Any, Any, None]:
        while True:
            item = yield self.member.deliver()
            if isinstance(item, ViewChange):
                continue
            assert isinstance(item, Message)
            payload = item.payload
            if payload.kind == protocol.PROC:
                rid = payload.rid
                proc = self.system.procedures[payload.proc]
                request = _LockRequest(rid, proc.locks_for(payload.params))
                self._requests[rid] = request
                self.locks.enqueue(request)  # in delivery order: deadlock-free
                self.sim.spawn(
                    self._run_transaction(rid, proc, payload.params, payload.origin),
                    name=f"{self.name}.run({rid})",
                    daemon=True,
                )
            elif payload.kind == protocol.WS and payload.sender != self.name:
                # only remote replicas wait for the writeset; the origin
                # committed it before multicasting
                event = self._ws_events.setdefault(payload.gid, Event())
                event.set(payload.writeset)

    def _run_transaction(self, rid, proc, params, origin) -> Generator[Any, Any, None]:
        request = self._requests.pop(rid)
        yield request.granted.wait()
        try:
            if origin == self.name:
                rows = yield from self._execute_and_broadcast(rid, proc, params)
                waiter = self._pending.pop(rid, None)
                if waiter is not None:
                    waiter.resolve(rows)
            else:
                event = self._ws_events.setdefault(rid, Event())
                writeset = yield event.wait()
                self._ws_events.pop(rid, None)
                if writeset:  # empty = read-only or aborted upstream
                    txn = self.db.begin(gid=rid, remote=True)
                    yield from self.db.apply_writeset(txn, writeset)
                    yield from self.db.commit(txn)
        finally:
            self.locks.release(request)

    def _execute_and_broadcast(self, rid, proc, params) -> Generator[Any, Any, Any]:
        txn = self.db.begin(gid=rid)
        rows = None
        for sql, sql_params in proc.statements(params):
            result = yield from self.db.execute(txn, sql, sql_params)
            if result.rows is not None:
                rows = result.rows
        writeset = self.db.get_writeset(txn)
        yield from self.db.commit(txn)
        # FIFO writeset propagation ([20] uses FIFO; total order is a
        # superset of that guarantee)
        self.member.multicast(protocol.WritesetMessage(
            gid=rid, writeset=writeset, sender=self.name
        ))
        return rows

    # -- client side ----------------------------------------------------------------

    _accept_loop = accept_loop
    _session_loop = session_loop

    def _handle_proc(self, request: protocol.ProcRequest) -> Generator[Any, Any, Any]:
        proc = self.system.procedures[request.proc]
        rid = f"{self.name}:r{next(self.system._rids)}"
        if proc.readonly:
            # queries run locally: enqueue local table locks only
            lock_request = _LockRequest(rid, proc.locks_for(request.params))
            self.locks.enqueue(lock_request)
            yield lock_request.granted.wait()
            try:
                txn = self.db.begin(gid=rid)
                rows = None
                for sql, sql_params in proc.statements(request.params):
                    result = yield from self.db.execute(txn, sql, sql_params)
                    if result.rows is not None:
                        rows = result.rows
                yield from self.db.commit(txn)
                return rows
            finally:
                self.locks.release(lock_request)
        waiter = OneShot()
        self._pending[rid] = waiter
        self.member.multicast(protocol.ProcMessage(
            rid=rid, proc=request.proc, params=request.params, origin=self.name
        ))
        rows = yield waiter.wait()
        return rows


class TableLockSystem(Comparator):
    """The full [20]-style deployment: n replicas over the GCS."""

    label = "protocol of [20]"

    def __init__(
        self, procedures: dict[str, Procedure], config: Optional[ClusterConfig] = None
    ):
        super().__init__(config)
        self.procedures = procedures
        self._rids = itertools.count(1)
        self.replicas = [
            _TableLockReplica(self, i) for i in range(self.config.n_replicas)
        ]


class ProcClient:
    """Minimal client for the [20] system: one procedure call per txn."""

    _seqs = itertools.count(1)

    def __init__(self, system: TableLockSystem, host):
        self.system = system
        self.host = host
        self._channel = None

    def connect(self, address: Optional[str] = None) -> Generator[Any, Any, None]:
        addresses = yield from self.system.discovery.discover()
        target = address or addresses[
            self.system.sim.rng("proc-client").randrange(len(addresses))
        ]
        self._channel = self.system.network.connect(self.host, target)

    def call(
        self, proc: str, params: tuple = (), readonly: bool = False
    ) -> Generator[Any, Any, Any]:
        request = protocol.ProcRequest(next(self._seqs), proc, params, readonly)
        self._channel.client_end.send(request)
        response = yield from self._channel.client_end.recv()
        if response.outcome != protocol.COMMITTED:
            raise protocol.unmarshal_error(response.error)
        return response.rows
