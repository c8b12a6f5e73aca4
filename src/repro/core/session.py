"""Session handling — the first stage of Fig. 4, shared by every server.

§6 is a fair comparison because the centralized system, SRCA-Rep /
SRCA-Opt, the kernel and primary-backup comparators and the [20]
baseline are all driven through one JDBC-like protocol
(:mod:`repro.core.protocol`).  This module is that protocol's only
server side: accept a channel, keep one :class:`Session` per connection,
route each request to the server's handler, marshal any failure into a
response of the request's own type, and abort whatever the session had
open when a statement fails or the channel is lost.

A *server* is any object with ``sim``, ``name``, ``host``, a
``_processes`` list and an ``active_sessions`` counter that binds
``_accept_loop`` / ``_session_loop`` to the functions below (the accept
loop spawns sessions through the server's own binding, so a tracer can
shim one server class's sessions) and defines a handler per request it
serves:

===============  ================================================
``ExecuteReq``   ``_execute(session, request)`` → ``ExecuteResp``
``CommitReq``    ``_commit(session, request)`` → ``CommitResp``
``InquireReq``   ``_inquire(gid, crashed)`` → outcome
``ProcRequest``  ``_handle_proc(request)`` → rows
state transfer   ``_accept_transfer(state)``
===============  ================================================

``RollbackReq`` is served here.  A request whose handler the server does
not define fails like any other request and gets the same typed error
response; the loop never asks which server it is serving.  A handler
may be a bound method of another object (the SRCA-Rep replica binds its
validation stages' methods), so the loop makes no extra call.

What the handlers share lives here too: :func:`execute_reply` builds the
answer to a statement the engine ran, :func:`note_staleness_wait`
records a snapshot held back by a session token, and :class:`InDoubt` is
the §5.4 inquiry every server that answers ``InquireReq`` binds as
``_inquire``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.errors import ReproError
from repro.net.network import ChannelClosed
from repro.sim import Gate, wait_until


@dataclass
class Session:
    """Server-side state of one client connection."""

    txn: Any = None  # active engine Transaction (or None)
    gid: Optional[str] = None
    #: causal-trace spans of the active transaction (repro.obs.trace);
    #: only a server with a ``tracer`` ever opens them
    root_span: Any = None
    exec_span: Any = None


class InDoubt:
    """§5.4 in-doubt resolution: the decided outcomes a failed-over
    client asks about, and the one rule that answers it.

    ``outcomes`` is bounded: an inquiry concerns a commit in flight at a
    crash, far newer than the oldest decisions, which are evicted (dicts
    keep insertion order) beyond ``outcomes_cap``.
    """

    outcomes_cap = 50_000

    def __init__(self, name: str, tracer=None, obs=None):
        self.name = name
        self.tracer = tracer
        self.obs = obs
        #: gid -> COMMITTED | ABORTED, decided at validation
        self.outcomes: dict[str, str] = {}
        self.crashed_seen: set[str] = set()
        self.gate = Gate(name=f"{name}.view-gate")

    def note(self, outcomes: dict[str, str]) -> None:
        self.outcomes.update(outcomes)
        while len(self.outcomes) > self.outcomes_cap:
            del self.outcomes[next(iter(self.outcomes))]

    def decide(self, gid: str, outcome: str) -> None:
        """A delivered writeset's decision: note it (one entry, so at
        most one eviction) and wake the inquiries."""
        outcomes = self.outcomes
        outcomes[gid] = outcome
        if len(outcomes) > self.outcomes_cap:
            del outcomes[next(iter(outcomes))]
        self.gate.notify_all()

    def view(self, crashed) -> None:
        self.crashed_seen.update(crashed)
        self.gate.notify_all()

    def inquire(self, gid: str, crashed: str) -> Generator[Any, Any, str]:
        """Answer only once we either saw the writeset's decision or the
        view change reporting the old replica's crash: a writeset not
        delivered by then was never sequenced, so it is aborted."""
        span = None
        if self.tracer is not None:
            # the gid doubles as the trace id, so the inquiry lands in the
            # same trace as the in-doubt transaction it resolves
            span = self.tracer.start("inquiry", gid, replica=self.name, crashed=crashed)
        yield from wait_until(
            self.gate, lambda: gid in self.outcomes or crashed in self.crashed_seen
        )
        outcome = self.outcomes.get(gid, protocol.ABORTED)
        if span is not None:
            self.tracer.finish(span, outcome=outcome)
        if self.obs is not None:
            self.obs.events.emit(
                "inquiry", replica=self.name, gid=gid, crashed=crashed, outcome=outcome
            )
            self.obs.registry.counter("failover.inquiries").inc(1)
        return outcome


def execute_reply(request, gid, result, snapshot_csn=None) -> protocol.ExecuteResp:
    """The answer to a statement the engine ran: ``result``'s rows."""
    return protocol.ExecuteResp(
        request.seq, ok=True, gid=gid, rows=result.rows, columns=result.columns,
        rowcount=result.rowcount, snapshot_csn=snapshot_csn,
    )


def note_staleness_wait(server, request, started: float) -> None:
    """A new snapshot waited since ``started`` for the session token (or
    a reader's staleness bound): record it on the client's read path,
    linked to the routed driver's span (the server is not its home)."""
    if server.tracer is not None and request.ctx is not None and server.sim.now > started:
        server.tracer.record(
            "staleness_wait", request.ctx.trace_id, start=started,
            link=request.ctx.span_id, replica=server.name, min_csn=request.min_csn,
        )


def accept_loop(server) -> Generator[Any, Any, None]:
    while True:
        chan = yield server.host.accept()
        # reap finished session handles before tracking a new one:
        # under churny clients the list would otherwise grow without
        # bound (crash() only needs the still-alive processes)
        server._processes = [p for p in server._processes if p.alive]
        server._processes.append(
            server.sim.spawn(
                server._session_loop(chan),
                name=f"{server.name}.session",
                daemon=True,
            )
        )


def session_loop(server, chan) -> Generator[Any, Any, None]:
    session = Session()
    server.active_sessions += 1
    try:
        while True:
            try:
                request = yield from chan.recv()
            except ChannelClosed:
                _abort_open(server, session, "lost-session")
                return
            if isinstance(request, protocol.Transfer):
                # inbound recovery state from a donor, not a client
                server._accept_transfer(request)
                return
            try:
                response = yield from _dispatch(server, session, request)
            except Exception as err:  # noqa: BLE001 - marshal to the client
                response = _error_response(request, err)
                _abort_open(server, session, "aborted")
            chan.send(response)
    finally:
        server.active_sessions -= 1


def _abort_open(server, session: Session, status: str) -> None:
    """Abort the session's transaction and close (never leak) its spans."""
    txn = session.txn
    if txn is not None and txn.active:
        txn.db.abort(txn)
    session.txn = None
    if session.exec_span is not None:
        server.tracer.finish(session.exec_span, status=status)
        session.exec_span = None
    if session.root_span is not None:
        server.tracer.finish(session.root_span, status=status)
        session.root_span = None


def _dispatch(server, session: Session, request) -> Generator[Any, Any, Any]:
    if isinstance(request, protocol.ExecuteReq):
        response = yield from server._execute(session, request)
        return response
    if isinstance(request, protocol.CommitReq):
        response = yield from server._commit(session, request)
        # whatever the outcome, the transaction is over
        session.txn = None
        return response
    if isinstance(request, protocol.RollbackReq):
        _abort_open(server, session, "rolled-back")
        return protocol.RollbackResp(request.seq)
    if isinstance(request, protocol.InquireReq):
        outcome = yield from server._inquire(request.gid, request.crashed)
        return protocol.InquireResp(request.seq, outcome)
    if isinstance(request, protocol.ProcRequest):
        rows = yield from server._handle_proc(request)
        return protocol.ProcResp(request.seq, protocol.COMMITTED, rows)
    raise ReproError(f"unknown request {request!r}")


def _error_response(request, err: BaseException):
    """The failure answer of ``request``'s own response type: the driver
    reads type-specific fields (``outcome`` / ``error``) off what comes
    back, so e.g. a ``RollbackResp`` to a failed inquiry would derail
    its §5.4 in-doubt resolution."""
    info = protocol.marshal_error(err)
    if isinstance(request, protocol.ExecuteReq):
        return protocol.ExecuteResp(request.seq, ok=False, error=info)
    if isinstance(request, protocol.CommitReq):
        return protocol.CommitResp(request.seq, protocol.ABORTED, error=info)
    if isinstance(request, protocol.InquireReq):
        # the outcome stays unresolved, so mark the error
        return protocol.InquireResp(request.seq, protocol.ABORTED, error=info)
    if isinstance(request, protocol.ProcRequest):
        return protocol.ProcResp(request.seq, protocol.ABORTED, error=info)
    return protocol.RollbackResp(request.seq)
