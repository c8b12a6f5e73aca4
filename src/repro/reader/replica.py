"""A lazy read-only replica.

One :class:`ReadReplica` owns a database engine and a network host, but
is **not** a group member: it never certifies, never votes, never
throttles on holes.  It consumes the :class:`~repro.reader.feed.CertifiedFeed`
and applies each certified writeset as a real remote transaction in
certification order, so its history is a growing prefix of the
1-copy-SI commit order and every snapshot it serves embeds into the
Def. 3 order (just possibly at an older csn — the **watermark**, which
is the certification tid of the last applied writeset and equals the
csn token full replicas return on commit).

Clients are served through the shared session front-end
(:mod:`repro.core.session`), SELECTs only: anything else raises
:class:`~repro.errors.ReadOnlyViolation`.  A session token
(``ExecuteReq.min_csn``) delays the snapshot until the
watermark reaches it (read-your-writes / monotonic reads); a configured
``staleness_bound`` delays *every* new snapshot — and declines
discovery — while the reader lags the certified tip by more than that
many transactions.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.core import protocol
from repro.core.replica import ReplicaNode
from repro.core.session import (
    Session,
    accept_loop,
    execute_reply,
    note_staleness_wait,
    session_loop,
)
from repro.durable import log as durable_log
from repro.errors import ReadOnlyViolation
from repro.gcs import DiscoveryService
from repro.net.network import Host
from repro.reader.config import ReaderConfig
from repro.reader.feed import CertifiedFeed
from repro.sim import Gate, Simulator, wait_until
from repro.storage.writeset import WriteSet


class ReadReplica:
    """One lazy replica of the read tier."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        node: ReplicaNode,
        host: Host,
        feed: CertifiedFeed,
        config: Optional[ReaderConfig] = None,
        discovery: Optional[DiscoveryService] = None,
        obs=None,
        from_seq: int = 0,
        tracer=None,
    ):
        self.sim = sim
        self.name = name
        self.node = node
        self.db = node.db
        self.host = host
        self.feed = feed
        self.config = config or ReaderConfig()
        self.discovery = discovery
        self.obs = obs
        #: optional repro.obs Tracer: watermark waits (session token /
        #: staleness bound) are recorded against the routed driver's
        #: read_txn span via the request's trace context (link edge —
        #: this replica is not the span's home); pure bookkeeping
        self.tracer = tracer
        self.alive = True
        #: certification tid of the last applied writeset (the advertised csn)
        self.watermark = 0
        #: feed seq of the last consumed item
        self.feed_pos = from_seq
        #: sim time of the last apply (staleness-seconds gauge)
        self.last_apply_t = sim.now
        #: (gid, writeset keys) installed at bootstrap — the Def. 3 audit
        #: synthesizes this reader's history prefix from these
        self.replayed: list[tuple[str, frozenset]] = []
        #: False when bootstrap installed row images instead of
        #: replayable transactions (snapshot join without a durable log)
        self.audit_complete = True
        #: gids a snapshot join installed as row images, for the online
        #: monitor's ``covered`` set (a log join's are in ``replayed``)
        self.covered_gids: set[str] = set()
        self.apply_gate = Gate(name=f"{name}.apply")
        self.active_sessions = 0
        self.applied = 0
        self.applied_ddl = 0
        self.stats_readonly_commits = 0
        self.stats_rejected_writes = 0
        self._gids = itertools.count(1)
        self.inbox = feed.subscribe(name, from_seq=from_seq)
        self._processes = [
            sim.spawn(self._apply_loop(), name=f"{name}.apply", daemon=True),
            sim.spawn(self._accept_loop(), name=f"{name}.accept", daemon=True),
        ]
        if discovery is not None:
            discovery.register(
                host.address, accepts_load=self._accepts_load, role="read"
            )

    # ----------------------------------------------------------------- state

    @property
    def lag(self) -> int:
        """Certified transactions this reader still has to apply.

        Clamped at zero: after a cold restart the feed tip starts below
        a fully bootstrapped watermark (replay is never published).
        """
        return max(0, self.feed.tip_tid - self.watermark)

    @property
    def staleness_s(self) -> float:
        """Seconds the reader has been behind the certified tip (0 when
        caught up)."""
        if self.lag == 0:
            return 0.0
        return self.sim.now - self.last_apply_t

    def _accepts_load(self) -> bool:
        """Decline discovery when dead, at the session cap, or serving
        snapshots staler than the advertised bound."""
        if not self.alive:
            return False
        cap = self.config.max_sessions
        if cap is not None and self.active_sessions >= cap:
            return False
        bound = self.config.staleness_bound
        if bound is not None and self.lag > bound:
            return False
        return True

    # ------------------------------------------------------------- bootstrap

    def join_from_log(self, records) -> None:
        """Join by replaying a donor's writeset log from its first record.

        The log holds real replayable transactions, so the reader's
        prefix stays auditable (``replayed`` feeds the Def. 3 audit's
        prefix synthesis, exactly like a delta-recovered full replica).
        """
        for record in records:
            record.install(self.db)
            if record.kind == durable_log.WS:
                self.replayed.append((record.gid, record.keys))
                self.watermark = record.tid
        self.last_apply_t = self.sim.now

    def join_from_state(self, transfer: protocol.Transfer) -> None:
        """Join from a donor's full transfer (no replayable log): its
        image's row images plus the certified-but-uncommitted pending
        writesets.

        Row images are not replayable transactions, so this incarnation
        stays out of the offline audit (``audit_complete=False``); the
        online monitor covers the pre-join prefix via ``covered_gids``.
        """
        image = transfer.image
        self.db.install_snapshot(
            image.ddl, image.rows, image.csn,
            [(record.gid, record.writeset) for record in transfer.pending],
        )
        self.covered_gids.update(record.gid for record in transfer.pending)
        self.covered_gids.update(
            gid for gid, outcome in image.outcomes.items()
            if outcome == protocol.COMMITTED
        )
        self.watermark = image.tid
        self.audit_complete = False
        self.last_apply_t = self.sim.now

    # ------------------------------------------------------------ apply side

    def _apply_loop(self) -> Generator[Any, Any, None]:
        """Consume the certified stream in order, one real remote
        transaction per writeset — sequential, so applies never conflict
        and the local ww order is exactly the certification order."""
        while True:
            record = yield self.inbox.get()
            if self.config.apply_delay > 0:
                yield self.sim.sleep(self.config.apply_delay)
            if record.kind == durable_log.WS:
                txn = self.db.begin(gid=record.gid, remote=True)
                yield from self.db.apply_writeset(txn, WriteSet(list(record.ops)))
                yield from self.db.commit(txn)
                self.watermark = record.tid
                self.applied += 1
            else:
                record.install(self.db)
                self.applied_ddl += 1
            self.feed_pos = record.seq
            self.last_apply_t = self.sim.now
            self.apply_gate.notify_all()

    # ---------------------------------------------------------- serving side

    _accept_loop = accept_loop
    _session_loop = session_loop

    def _execute(
        self, session: Session, request: protocol.ExecuteReq
    ) -> Generator[Any, Any, protocol.ExecuteResp]:
        verb = request.sql.lstrip().split(None, 1)[0].upper() if request.sql.strip() else ""
        if verb != "SELECT":
            self.stats_rejected_writes += 1
            raise ReadOnlyViolation(
                f"read replica {self.name} serves SELECT only, got {verb or '<empty>'}"
            )
        if session.txn is None or not session.txn.active:
            # the snapshot is fixed by the first statement: honor the
            # session token and the staleness bound before taking it
            wait_started = self.sim.now
            if request.min_csn is not None:
                token = request.min_csn
                yield from wait_until(
                    self.apply_gate, lambda: self.watermark >= token
                )
            bound = self.config.staleness_bound
            if bound is not None and self.lag > bound:
                yield from wait_until(self.apply_gate, lambda: self.lag <= bound)
            note_staleness_wait(self, request, wait_started)
            session.gid = f"{self.name}:g{next(self._gids)}"
            session.txn = self.db.begin(gid=session.gid)
        result = yield from self.db.execute(session.txn, request.sql, request.params)
        return execute_reply(request, session.gid, result, session.txn.snapshot_csn)

    def _commit(
        self, session: Session, request: protocol.CommitReq
    ) -> Generator[Any, Any, protocol.CommitResp]:
        txn = session.txn
        session.txn = None
        if txn is None or not txn.active:
            return protocol.CommitResp(request.seq, protocol.COMMITTED)
        snapshot = txn.snapshot_csn
        yield from self.db.commit(txn)
        self.stats_readonly_commits += 1
        # the snapshot csn doubles as the session's monotonic-reads
        # token: the next read anywhere must not go further back
        return protocol.CommitResp(
            request.seq, protocol.COMMITTED, csn=snapshot
        )

    # ----------------------------------------------------------------- control

    def crash(self) -> None:
        """Kill the apply and serving processes; the cluster also takes
        down the host, discovery entry, gauges, and monitor watch."""
        self.alive = False
        self.feed.unsubscribe(self.name)
        for process in self._processes:
            process.kill()

    def metrics(self) -> dict:
        return {
            "watermark": self.watermark,
            "feed_pos": self.feed_pos,
            "lag": self.lag,
            "staleness_s": self.staleness_s,
            "queue_depth": len(self.inbox),
            "applied": self.applied,
            "applied_ddl": self.applied_ddl,
            "readonly_commits": self.stats_readonly_commits,
            "rejected_writes": self.stats_rejected_writes,
            "active_sessions": self.active_sessions,
            "alive": self.alive,
        }
