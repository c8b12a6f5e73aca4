"""Online 1-copy-SI monitoring: the Def. 3 audit as a streaming check.

``SIRepCluster.one_copy_report()`` feeds the finished histories to
``si/onecopy.py::KeyedAudit`` and asks once.  The
:class:`OneCopyMonitor` feeds the same engine **while the run is
going**: a weak sim-timer daemon hands it each watched database's new
``db.history`` entries (every entry carries its sim timestamp), and
flags

* ``one-copy-si`` — a constraint cycle, i.e. the §4.3.2 Ta/Tb anomaly,
  at the poll where the cycle closes (with the offending event's sim
  timestamp, not at end of run);
* ``ww-order``  — two replicas committing a ww-conflicting pair in
  different orders (a hole-order violation);
* ``rowa``      — the "same" transaction committing different writesets
  at different replicas, or a remote commit carrying a readset;
* ``lost-writeset`` — an update committed somewhere but still missing at
  a watched replica ``loss_grace`` sim-seconds later.

Monitoring is read-only: the poll never yields mid-work, draws no
randomness, and notifies no gates, so a monitored run is event-identical
to an unmonitored one.  Crashed replicas are unwatched (their missing
suffix is legitimate) and the engine is rebuilt by re-feeding the
survivors' histories; already-flagged violations are never re-emitted.
What is online-only lives here: the weak-timer daemon, the sim
timestamps, the lost-writeset grace check, the dedup set and the cycle
latch, the obs/flight plumbing and ``max_txns`` saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.si.onecopy import KeyedAudit
from repro.si.schedule import COMMIT


@dataclass(frozen=True)
class MonitorViolation:
    """One flagged invariant violation, stamped in simulated time."""

    kind: str
    detail: str
    #: sim time the monitor flagged it (the poll where it became visible)
    at: float
    #: sim time of the offending event itself (commit/begin)
    offending_t: float
    gids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "at": self.at,
            "offending_t": self.offending_t,
            "gids": list(self.gids),
        }

    def __str__(self) -> str:
        return (
            f"[{self.kind}] t={self.offending_t:.6f} "
            f"(flagged at {self.at:.6f}): {self.detail}"
        )


class _Watch:
    """A watched database, how far its history has been fed, and what
    its replica committed before that history began."""

    __slots__ = ("name", "db", "cursor", "prefix", "covered")

    def __init__(self, name: str, db, prefix, covered):
        self.name = name
        self.db = db
        self.cursor = 0
        self.prefix = tuple(prefix)
        self.covered = frozenset(covered)


class OneCopyMonitor:
    """Streaming Def. 3 checker over the live per-replica histories."""

    #: sim-seconds an update may be missing at a watched replica
    loss_grace = 5.0
    #: updates tracked before the graph is saturated and checking stops
    max_txns = 20_000

    def __init__(
        self,
        sim,
        interval: float = 0.05,
        obs=None,
        on_violation: Optional[Callable[[MonitorViolation], None]] = None,
    ):
        if interval <= 0:
            raise ValueError(f"monitor interval must be positive: {interval}")
        self.sim = sim
        self.interval = interval
        self.obs = obs
        self.on_violation = on_violation
        self.violations: list[MonitorViolation] = []
        #: a constraint cycle is permanent — latch instead of re-flagging
        self.tripped = False
        self.saturated = False
        self.polls = 0
        self._watches: dict[str, _Watch] = {}
        self._audit = KeyedAudit()
        #: update gid -> sim time of its first commit in a watched history
        self._first_commit: dict[str, float] = {}
        #: the same for the updates some watch may still miss, which the
        #: lost-writeset check visits; rebuilt when the watches change
        self._missing: dict[str, float] = {}
        #: (kind, gids) already flagged, so a persistent condition is
        #: flagged exactly once
        self._flagged: set[tuple] = set()
        self._process = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.alive

    def start(self) -> None:
        """Spawn the polling daemon (idempotent)."""
        if self.running:
            return
        self._process = self.sim.spawn(
            self._loop(), name="obs.monitor", daemon=True
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _loop(self) -> Generator[Any, Any, None]:
        while True:
            # weak tick: monitoring must never keep the simulation alive
            yield self.sim.sleep(self.interval, weak=True)
            self.poll()

    def watch(self, name: str, db, prefix=(), covered=()) -> None:
        """Start consuming ``db.history`` under this replica name.

        ``prefix`` is what a durable-log replay committed here before the
        history began, as ``(gid, keys)`` in commit order; ``covered``
        names gids a snapshot join holds, in no known order.  Either way
        they precede every event the history will produce but never
        appear in it, so the ROWA and reads-from checks treat them as
        committed-before-watch rather than missing.
        """
        watch = self._watches[name] = _Watch(name, db, prefix, covered)
        self._admit(watch)
        self._missing = dict(self._first_commit)

    def unwatch(self, name: str) -> None:
        """Stop auditing a replica (crashed / recovered) and rebuild the
        constraint state by re-feeding the remaining watches' histories
        up to their cursors.  Already-flagged violations stay flagged and
        are not re-emitted."""
        if self._watches.pop(name, None) is None:
            return
        self._audit = KeyedAudit()
        self._first_commit = {}
        self._missing = {}
        for watch in self._watches.values():
            self._admit(watch)
            history = watch.db.history
            for index in range(watch.cursor):
                self._feed(watch, history[index])
        if not self.tripped:
            self._check_cycle()

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- the streaming check -----------------------------------------------------

    def poll(self) -> list[MonitorViolation]:
        """One incremental pass; returns the violations flagged by it."""
        if self.saturated:
            return []
        before = len(self.violations)
        self.polls += 1
        fed = False
        for watch in self._watches.values():
            history = watch.db.history
            while watch.cursor < len(history):
                self._feed(watch, history[watch.cursor])
                watch.cursor += 1
                fed = True
        if fed and not self.tripped:
            self._check_cycle()
        self._check_lost()
        if len(self._first_commit) > self.max_txns:
            # bounded memory on very long runs: stop checking rather
            # than degrade the run it is observing
            self.saturated = True
        return self.violations[before:]

    def _admit(self, watch: _Watch) -> None:
        for v in self._audit.watch(watch.name, watch.prefix, watch.covered, watch.db.history):
            self._flag(v.rule, v.detail, self.sim.now, v.gids)

    def _feed(self, watch: _Watch, entry: tuple) -> None:
        for v in self._audit.feed(watch.name, entry):
            self._flag(v.rule, v.detail, entry[-1], v.gids)
        if entry[0] == "commit" and entry[4] and entry[1] not in self._first_commit:
            self._first_commit[entry[1]] = self._missing[entry[1]] = entry[-1]

    def _check_cycle(self) -> None:
        cycle = self._audit.graph.find_cycle()
        if cycle is None:
            return
        self.tripped = True
        nodes = [edge[0] for edge in cycle]
        local = self._audit.local
        times = [
            self._first_commit.get(gid) if kind == COMMIT
            else local[gid][1][-1] if gid in local else None
            for kind, gid in nodes
        ]
        offending = max((t for t in times if t is not None), default=self.sim.now)
        chain = " -> ".join(f"{kind}{gid}" for kind, gid in nodes)
        self._flag(
            "one-copy-si",
            f"constraint cycle {chain}; latest event at t={offending:.6f}",
            offending_t=offending,
            gids=tuple(dict.fromkeys(gid for _kind, gid in nodes)),
        )

    def _check_lost(self) -> None:
        """An update committed somewhere must reach every watched replica
        within ``loss_grace`` sim-seconds (ROWA).  An update every watch
        holds or covers is not visited again."""
        now = self.sim.now
        replicas = self._audit.replicas
        held = []
        for gid, first_t in self._missing.items():
            missing = [
                watch for watch in self._watches.values()
                if gid not in replicas[watch.name].committed and gid not in watch.covered
            ]
            if not missing:
                held.append(gid)
            elif now - first_t > self.loss_grace:
                for watch in missing:
                    self._flag(
                        "lost-writeset",
                        f"update {gid} committed at t={first_t:.6f} but still "
                        f"missing at {watch.name} after {self.loss_grace:.1f}s",
                        offending_t=first_t,
                        gids=(gid,),
                        key=(gid, watch.name),
                    )
        for gid in held:
            del self._missing[gid]

    # -- plumbing ----------------------------------------------------------------

    def _flag(
        self, kind: str, detail: str, offending_t: float, gids: tuple[str, ...],
        key: tuple = (),
    ) -> None:
        """Record a violation, unless the same one (``kind`` and ``key``,
        which defaults to ``gids``) was flagged before."""
        dedup = (kind, key or gids)
        if dedup in self._flagged:
            return
        self._flagged.add(dedup)
        violation = MonitorViolation(
            kind=kind,
            detail=detail,
            at=self.sim.now,
            offending_t=offending_t,
            gids=gids,
        )
        self.violations.append(violation)
        if self.obs is not None:
            self.obs.registry.counter("monitor.violations").inc()
            self.obs.events.emit(
                "monitor_violation",
                kind=kind,
                detail=detail,
                offending_t=offending_t,
                gids=list(gids),
            )
        if self.on_violation is not None:
            self.on_violation(violation)

    def summary(self) -> dict:
        return {
            "polls": self.polls,
            "watched": sorted(self._watches),
            "transactions": len(self._first_commit),
            "tripped": self.tripped,
            "saturated": self.saturated,
            "violations": [v.to_dict() for v in self.violations],
        }
