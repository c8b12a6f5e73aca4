"""One database replica plus the middleware machinery that feeds it.

:class:`ReplicaManager` owns the to-commit queue, the hole tracker, and a
committer process implementing steps II (Fig. 1) / III (Fig. 4) in one of
two scheduling modes:

* ``strict_serial=True`` — the basic SRCA: only the queue head may be
  applied/committed, strictly one at a time;
* ``strict_serial=False`` — adjustment 2: an entry proceeds as soon as no
  *conflicting* transaction is queued before it, concurrently with
  others; with ``hole_sync=True`` (adjustment 3) starts and commits are
  additionally synchronized through the :class:`HoleTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.holes import HoleTracker
from repro.core.tocommit import Entry, GroupCommitLog, ToCommitQueue
from repro.errors import DeadlockDetected, SerializationFailure
from repro.sim import Gate, Simulator, wait_until
from repro.sim.resources import Resource
from repro.storage.engine import Database


@dataclass
class ReplicaNode:
    """A database replica and its hardware service centres."""

    name: str
    db: Database
    cpu: Optional[Resource] = None
    disk: Optional[Resource] = None


class ReplicaManager:
    """Applies and commits validated transactions at one replica."""

    def __init__(
        self,
        sim: Simulator,
        node: ReplicaNode,
        strict_serial: bool = False,
        hole_sync: bool = True,
        group_commit: bool = False,
        commit_pipeline: bool = False,
        tracer=None,
    ):
        self.sim = sim
        self.node = node
        self.db = node.db
        self.strict_serial = strict_serial
        self.hole_sync = hole_sync
        self.group_log = (
            GroupCommitLog(sim, node.db, name=f"{node.name}.group-commit")
            if group_commit
            else None
        )
        self.queue = ToCommitQueue()
        self.holes = HoleTracker()
        self.gate = Gate(name=f"{node.name}.commit-gate")
        self._running = 0
        self._stopped = False
        self.remote_apply_retries = 0
        self.committed_entries = 0
        #: Fig. 1's lastcommitted_tid_k — meaningful under strict_serial,
        #: where commits happen in tid order.
        self.last_committed_tid = 0
        #: optional hook fired after each entry commits at this replica
        self.on_commit = None
        #: group-commit pipelining: let a conflicting successor start
        #: applying once its predecessor's versions are INSTALLED, while
        #: the predecessor's durability force is still batched in the
        #: group log.  The client ack (``entry.done``) always waits for
        #: the force; recovery replays the writeset log, which was
        #: appended at certification, so durability is unaffected.
        #: SI-Rep turns it on with salvage: deferral keeps conflicting
        #: entries alive in the queue, where chained installs would
        #: otherwise pay one full force per link.
        self.commit_pipeline = commit_pipeline
        #: optional repro.obs Tracer (the middleware's); spans are pure
        #: bookkeeping — no yields, no RNG
        self.tracer = tracer
        #: entry -> its open commit_queue span (entries hash by identity)
        self._entry_spans: dict[Entry, object] = {}
        self._process = sim.spawn(
            self._committer(), name=f"{node.name}.committer", daemon=True
        )

    # -- local transaction starts (adjustment 3, start side) ----------------------

    def wait_local_start(self) -> Generator[Any, Any, None]:
        """Block a new *local* transaction while the commit order has holes."""
        if not self.hole_sync:
            self.holes.note_start_attempt(False)
            return
        had_to_wait = self.holes.has_holes()
        self.holes.note_start_attempt(had_to_wait)
        if not had_to_wait:
            return
        self.holes.waiting_to_start += 1
        self.gate.notify_all()  # commit policy depends on the waiter count
        try:
            yield from wait_until(self.gate, lambda: not self.holes.has_holes())
        finally:
            self.holes.waiting_to_start -= 1
            self.gate.notify_all()

    # -- queue ingestion -------------------------------------------------------------

    def _trace_enqueued(self, entry: Entry) -> None:
        """Open the entry's commit_queue span (validated -> dispatched)."""
        if self.tracer is None or entry.ctx is None:
            return
        self._entry_spans[entry] = self.tracer.start(
            "commit_queue",
            entry.ctx.trace_id,
            parent=entry.ctx.span_id,
            replica=self.node.name,
            gid=entry.gid,
        )

    def enqueue(self, entry: Entry) -> None:
        """Add a validated transaction (local or remote) to the queue."""
        self.queue.append(entry)
        self._trace_enqueued(entry)
        if self.hole_sync:
            self.holes.register(entry.tid, at=self.sim.now)
        self.gate.notify_all()

    def enqueue_batch(self, entries: list[Entry]) -> None:
        """Add a delivered batch's validated entries in one step.

        The entries keep their individual tid order in the queue and in
        the hole tracker (a batch is never a fused commit unit); only
        the queue insertion and the committer wakeup are amortised.
        """
        if not entries:
            return
        self.queue.extend(entries)
        for entry in entries:
            self._trace_enqueued(entry)
        if self.hole_sync:
            self.holes.register_many(
                [entry.tid for entry in entries], at=self.sim.now
            )
        self.gate.notify_all()

    # -- committer ------------------------------------------------------------------

    def _ready(self, entry: Entry) -> bool:
        if entry.started:
            return False
        if self.strict_serial:
            return self.queue.head() is entry and self._running == 0
        blocking = self.queue.blocking_predecessor(
            entry, installed_ok=self.commit_pipeline
        )
        if blocking is not None:
            return False
        return self._commit_allowed(entry)

    def _commit_allowed(self, entry: Entry) -> bool:
        """Adjustment 3, commit side."""
        if not self.hole_sync:
            return True
        if entry.is_local:
            return True
        if self.holes.waiting_to_start == 0:
            return True
        return not self.holes.creates_new_hole(entry.tid)

    def _committer(self) -> Generator[Any, Any, None]:
        while not self._stopped:
            for entry in list(self.queue):
                if self._ready(entry):
                    entry.started = True
                    self._running += 1
                    self.sim.spawn(
                        self._run_entry(entry),
                        name=f"{self.node.name}.apply({entry.gid})",
                        daemon=True,
                    )
                    if self.strict_serial:
                        break
            yield self.gate.wait()

    def _run_entry(self, entry: Entry) -> Generator[Any, Any, None]:
        queue_span = self._entry_spans.pop(entry, None)
        work_span = None
        if queue_span is not None:
            self.tracer.finish(queue_span)
            work_span = self.tracer.start(
                "commit" if entry.is_local else "apply",
                entry.ctx.trace_id,
                parent=entry.ctx.span_id,
                replica=self.node.name,
                gid=entry.gid,
            )
        try:
            if entry.is_local:
                yield from self._commit_txn(entry.local_txn, entry)
            else:
                yield from self._apply_remote(entry)
        finally:
            self._running -= 1
        self.queue.remove(entry)
        self.committed_entries += 1
        self.last_committed_tid = entry.tid
        if work_span is not None:
            self.tracer.finish(work_span)
        if entry.trace_span is not None and self.tracer is not None:
            self.tracer.finish(entry.trace_span)
        entry.done.set(True)
        if self.on_commit is not None:
            self.on_commit(entry)
        self.gate.notify_all()

    def _commit_txn(self, txn, entry: Optional[Entry] = None) -> Generator[Any, Any, None]:
        """Commit through the group-commit log when one is configured:
        one fsync-equivalent charge covers the run of entries flushing
        together; the install itself stays per-transaction.

        With ``commit_pipeline`` the install happens BEFORE the force:
        the entry is marked ``installed`` so conflicting successors can
        start applying against its versions while the force is batched.
        """
        if self.group_log is None:
            yield from self.db.commit(txn)
            self._mark_installed(entry)
        elif self.commit_pipeline:
            yield from self.db.commit(txn, charge=False)
            self._mark_installed(entry)
            yield from self.group_log.sync(len(txn.writes))
        else:
            yield from self.group_log.sync(len(txn.writes))
            yield from self.db.commit(txn, charge=False)
            self._mark_installed(entry)

    def _mark_installed(self, entry: Optional[Entry]) -> None:
        """Versions are visible from here on: close the entry's hole (the
        tracker guards SNAPSHOT gaps, which installs create and close —
        durability is the writeset log's job) and wake the committer."""
        if entry is None:
            return
        entry.installed = True
        if self.hole_sync:
            self.holes.mark_committed(entry.tid)
        self.gate.notify_all()  # hole waiters + conflicting successors

    def _apply_remote(self, entry: Entry) -> Generator[Any, Any, None]:
        """Apply a remote writeset, retrying on DB-level aborts (§4.2)."""
        while True:
            txn = self.db.begin(gid=entry.gid, remote=True)
            try:
                yield from self.db.apply_writeset(
                    txn, entry.writeset, charge=not entry.rehomed
                )
                yield from self._commit_txn(txn, entry)
                return
            except (SerializationFailure, DeadlockDetected):
                self.remote_apply_retries += 1
                # engine already aborted txn; retry with a fresh snapshot

    # -- lifecycle ------------------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self._process.kill()
