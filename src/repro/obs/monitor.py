"""Online 1-copy-SI monitoring: the Def. 3 audit as a streaming check.

``si/onecopy.py`` decides *after* a run whether the per-replica histories
admit a global SI-schedule.  The :class:`OneCopyMonitor` maintains the
same constraint graph **incrementally** while the run is going: a weak
sim-timer daemon consumes each watched database's ``db.history`` (every
entry now carries its sim timestamp), derives the Def. 3 edges as
transactions commit, and flags

* ``one-copy-si`` — a constraint cycle, i.e. the §4.3.2 Ta/Tb anomaly,
  at the poll where the cycle closes (with the offending event's sim
  timestamp, not at end of run);
* ``ww-order``  — two replicas committing a ww-conflicting pair in
  different orders (a hole-order violation);
* ``rowa``      — the "same" transaction committing different writesets
  at different replicas;
* ``lost-writeset`` — an update committed somewhere but still missing at
  a watched replica ``loss_grace`` sim-seconds later.

Monitoring is read-only: the poll never yields mid-work, draws no
randomness, and notifies no gates, so a monitored run is event-identical
to an unmonitored one.  Crashed replicas are unwatched (their missing
suffix is legitimate) and the graph is rebuilt from the survivors;
already-flagged violations are never re-emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.si.graph import DiGraph
from repro.si.schedule import BEGIN, COMMIT


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
    """Cursor + per-replica event state over one database's history."""

    __slots__ = (
        "name", "db", "cursor", "events", "begin_pos", "begin_t",
        "commit_pos", "commit_t", "committed", "local", "_last_begin",
        "covered",
    )

    def __init__(self, name: str, db, covered=frozenset()):
        self.name = name
        self.db = db
        self.cursor = 0
        #: normalized events retained for graph rebuilds after unwatch
        self.events: list[_Commit] = []
        #: gids installed by durable-log replay before watching started:
        #: committed here, ordered before everything in ``db.history``,
        #: but absent from it (delta recovery re-watch)
        self.covered: frozenset = frozenset(covered)
        self.reset_derived()

    def reset_derived(self) -> None:
        self.begin_pos: dict[str, int] = {}
        self.begin_t: dict[str, float] = {}
        self.commit_pos: dict[str, int] = {}
        self.commit_t: dict[str, float] = {}
        self.committed: set[str] = set()
        self.local: set[str] = set()
        self._last_begin: dict[str, tuple[int, float, bool]] = {}


#: one commit as ``_apply_event`` hands it on: (watch, gid, readset, writeset)
_Commit = tuple[_Watch, str, frozenset, frozenset]


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
        self._graph = DiGraph()
        #: gid -> writeset / first-commit time / first-begin time
        self._update_ws: dict[str, frozenset] = {}
        self._first_commit: dict[str, float] = {}
        self._begin_time: dict[str, float] = {}
        #: gid -> (readset, home watch) for committed local readers
        self._readers: dict[str, tuple[frozenset, str]] = {}
        #: (a, b) sorted pair -> gid committed first (agreed ww order)
        self._ww_order: dict[tuple[str, str], str] = {}
        self._rf_done: set[tuple[str, str]] = set()
        #: dedup sets so a persistent condition is flagged exactly once
        self._flagged_ww: set[tuple[str, str]] = set()
        self._flagged_rowa: set[str] = set()
        self._flagged_lost: set[tuple[str, str]] = set()
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

    def watch(self, name: str, db, covered=None) -> None:
        """Start consuming ``db.history`` under this replica name.

        ``covered`` names transactions already committed at this replica
        through durable-log replay (delta recovery): they precede every
        event the history will produce but never appear in it, so the
        ROWA and reads-from checks treat them as committed-before-watch
        rather than missing.
        """
        self._watches[name] = _Watch(name, db, covered=covered or frozenset())

    def unwatch(self, name: str) -> None:
        """Stop auditing a replica (crashed / recovered) and rebuild the
        constraint state from the remaining watches.  Already-flagged
        violations stay flagged and are not re-emitted."""
        if self._watches.pop(name, None) is None:
            return
        self._rebuild()

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
        new_commits: list[_Commit] = []
        for watch in self._watches.values():
            new_commits.extend(self._ingest(watch))
        if new_commits:
            self._derive(new_commits)
        self._check_lost()
        if len(self._first_commit) > self.max_txns:
            # bounded memory on very long runs: stop checking rather
            # than degrade the run it is observing
            self.saturated = True
        return self.violations[before:]

    def _ingest(self, watch: _Watch) -> list[_Commit]:
        """Advance one watch's cursor; returns its new commits."""
        history = watch.db.history
        commits = []
        while watch.cursor < len(history):
            entry = history[watch.cursor]
            watch.cursor += 1
            watch.events.append(entry)
            commits.extend(self._apply_event(watch, entry))
        return commits

    def _apply_event(self, watch: _Watch, entry: tuple) -> list[_Commit]:
        position = len(watch.events)  # strictly increasing per watch
        if entry[0] == "begin":
            _kind, gid, _csn, remote, t = entry
            # a retried remote apply begins several times; the begin that
            # counts is the last one before the commit
            watch._last_begin[gid] = (position, t, remote)
            return []
        _kind, gid, _csn, readset, writeset, t = entry
        began = watch._last_begin.get(gid)
        if began is not None:
            begin_pos, begin_t, remote = began
            watch.begin_pos[gid] = begin_pos
            watch.begin_t[gid] = begin_t
            if not remote:
                watch.local.add(gid)
                self._begin_time.setdefault(gid, begin_t)
        watch.commit_pos[gid] = position
        watch.commit_t[gid] = t
        watch.committed.add(gid)
        return [(watch, gid, frozenset(readset), frozenset(writeset))]

    def _derive(self, new_commits: list[_Commit]) -> None:
        """Turn this poll's commits into Def. 3 constraint edges.

        Ingestion completes for *every* watch before any edge is derived,
        so position comparisons are made against a consistent prefix and
        each (writer, reader) / ww pair is decided exactly once.
        """
        added_edges = False
        new_writers: list[str] = []
        new_readers: list[str] = []
        for watch, gid, readset, entry_ws in new_commits:
            if entry_ws:
                known = self._update_ws.get(gid)
                if known is None:
                    self._update_ws[gid] = entry_ws
                    new_writers.append(gid)
                elif known != entry_ws and gid not in self._flagged_rowa:
                    self._flagged_rowa.add(gid)
                    self._flag(
                        "rowa",
                        f"txn {gid} committed different writesets across "
                        f"replicas (seen at {watch.name})",
                        offending_t=watch.commit_t[gid],
                        gids=(gid,),
                    )
                self._first_commit.setdefault(gid, watch.commit_t[gid])
            if (COMMIT, gid) not in self._graph:
                self._graph.add_edge((BEGIN, gid), (COMMIT, gid))
                added_edges = True
            if gid in watch.local and readset and gid not in self._readers:
                self._readers[gid] = (readset, watch.name)
                new_readers.append(gid)
        added_edges |= self._derive_ww(new_commits)
        added_edges |= self._derive_rf(new_writers, new_readers)
        if added_edges and not self.tripped:
            self._check_cycle()

    def _derive_ww(self, new_commits: list[_Commit]) -> bool:
        """Def. 3(ii.a): ww-conflicting commit orders must agree."""
        added = False
        for watch, gid, _readset, _writeset in new_commits:
            ws = self._update_ws.get(gid)
            if not ws:
                continue
            for other, other_ws in self._update_ws.items():
                if other == gid or not (ws & other_ws):
                    continue
                if other not in watch.committed:
                    continue
                first = (
                    gid
                    if watch.commit_pos[gid] < watch.commit_pos[other]
                    else other
                )
                pair = (gid, other) if gid < other else (other, gid)
                agreed = self._ww_order.get(pair)
                if agreed is None:
                    self._ww_order[pair] = first
                    second = other if first == gid else gid
                    self._graph.add_edge((COMMIT, first), (COMMIT, second))
                    self._graph.add_edge((COMMIT, first), (BEGIN, second))
                    added = True
                elif agreed != first and pair not in self._flagged_ww:
                    self._flagged_ww.add(pair)
                    self._flag(
                        "ww-order",
                        f"replicas disagree on the commit order of the "
                        f"ww-conflicting pair {pair[0]},{pair[1]} "
                        f"({watch.name} commits {first} first)",
                        offending_t=watch.commit_t[gid],
                        gids=pair,
                    )
        return added

    def _derive_rf(self, new_writers: list[str], new_readers: list[str]) -> bool:
        """Def. 3(ii.b): each local reader's reads-from relation.

        A (writer, reader) pair is decided exactly once, from the
        reader's home schedule: if the writer's commit is not (yet)
        recorded there, every future commit lands at a later position
        than the reader's already-recorded begin, so the begin comes
        first either way.
        """
        added = False
        pairs: list[tuple[str, str]] = []
        for reader in new_readers:
            readset, _home = self._readers[reader]
            for writer, ws in self._update_ws.items():
                if writer != reader and (ws & readset):
                    pairs.append((writer, reader))
        for writer in new_writers:
            ws = self._update_ws[writer]
            for reader, (readset, _home) in self._readers.items():
                if writer != reader and (ws & readset):
                    pairs.append((writer, reader))
        for writer, reader in pairs:
            if (writer, reader) in self._rf_done:
                continue
            self._rf_done.add((writer, reader))
            home = self._watches.get(self._readers[reader][1])
            if home is None:
                continue
            writer_commit = home.commit_pos.get(writer)
            reader_begin = home.begin_pos.get(reader)
            if reader_begin is None:
                continue
            if writer_commit is not None and writer_commit < reader_begin:
                self._graph.add_edge((COMMIT, writer), (BEGIN, reader))
            elif writer_commit is None and writer in home.covered:
                # the writer landed during the home replica's log replay:
                # it committed before the watch (and thus the begin) even
                # though the history never shows it
                self._graph.add_edge((COMMIT, writer), (BEGIN, reader))
            else:
                self._graph.add_edge((BEGIN, reader), (COMMIT, writer))
            added = True
        return added

    def _check_cycle(self) -> None:
        cycle = self._graph.find_cycle()
        if cycle is None:
            return
        self.tripped = True
        nodes = [edge[0] for edge in cycle]
        times = [self._event_time(node) for node in nodes]
        offending = max((t for t in times if t is not None), default=self.sim.now)
        chain = " -> ".join(f"{kind}{gid}" for kind, gid in nodes)
        self._flag(
            "one-copy-si",
            f"constraint cycle {chain}; latest event at t={offending:.6f}",
            offending_t=offending,
            gids=tuple(dict.fromkeys(gid for _kind, gid in nodes)),
        )

    def _event_time(self, node: tuple) -> Optional[float]:
        kind, gid = node
        if kind == COMMIT:
            return self._first_commit.get(gid)
        return self._begin_time.get(gid)

    def _check_lost(self) -> None:
        """An update committed somewhere must reach every watched replica
        within ``loss_grace`` sim-seconds (ROWA)."""
        now = self.sim.now
        for gid, first_t in self._first_commit.items():
            if now - first_t <= self.loss_grace:
                continue
            for watch in self._watches.values():
                if gid in watch.committed or gid in watch.covered:
                    continue
                key = (gid, watch.name)
                if key in self._flagged_lost:
                    continue
                self._flagged_lost.add(key)
                self._flag(
                    "lost-writeset",
                    f"update {gid} committed at t={first_t:.6f} but still "
                    f"missing at {watch.name} after {self.loss_grace:.1f}s",
                    offending_t=first_t,
                    gids=(gid,),
                )

    # -- plumbing ----------------------------------------------------------------

    def _flag(
        self, kind: str, detail: str, offending_t: float, gids: tuple[str, ...]
    ) -> None:
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

    def _rebuild(self) -> None:
        """Recompute the constraint state from the remaining watches.

        Flagged-violation dedup sets and the cycle latch survive, so a
        rebuild never re-emits what was already reported.
        """
        self._graph = DiGraph()
        self._update_ws = {}
        self._first_commit = {}
        self._begin_time = {}
        self._readers = {}
        self._ww_order = {}
        self._rf_done = set()
        commits: list[_Commit] = []
        for watch in self._watches.values():
            events = watch.events
            watch.events = []
            watch.reset_derived()
            for entry in events:
                watch.events.append(entry)
                commits.extend(self._apply_event(watch, entry))
        if commits and not self.tripped:
            self._derive(commits)

    def summary(self) -> dict:
        return {
            "polls": self.polls,
            "watched": sorted(self._watches),
            "transactions": len(self._first_commit),
            "tripped": self.tripped,
            "saturated": self.saturated,
            "violations": [v.to_dict() for v in self.violations],
        }
