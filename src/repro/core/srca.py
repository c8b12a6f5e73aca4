"""SRCA — the centralized Simple Replica Control Algorithm (Fig. 1).

Three modes matching the paper's development:

* ``basic`` (§3, Fig. 1 verbatim): database replicas check conflicts at
  commit time (``conflict_detection="deferred"``); validation compares
  against all previously validated writesets using the certificate taken
  at begin (``Ti.cert = lastcommitted_tid_k``); writesets are applied and
  committed strictly serially per replica.
* ``opt`` (§4 adjustments 1+2): locking databases; a local transaction is
  validated only against the local to-commit queue; non-conflicting
  entries apply/commit concurrently.  1-copy-SI is *not* guaranteed.
* ``full`` (§4 adjustments 1+2+3): like ``opt`` plus hole
  synchronization, restoring 1-copy-SI.

Mutual exclusion notes: Fig. 1's ``wsmutex``/``dbmutex`` protect
validation and begin/commit interleavings; in this implementation both
critical sections contain no simulation yields, so they are atomic by
construction of the cooperative kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.replica import ReplicaManager, ReplicaNode
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, WsRecord
from repro.errors import InvalidTransactionState
from repro.sim import Simulator
from repro.storage.engine import DEFERRED, LOCKING

BASIC = "basic"
OPT = "opt"
FULL = "full"

COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class SrcaTxn:
    """Client handle: a transaction pinned to its local replica."""

    gid: str
    replica: int
    txn: Any  # engine Transaction
    cert: int

    @property
    def active(self) -> bool:
        return self.txn.active


class SRCA:
    """The centralized middleware in front of a set of DB replicas."""

    _gids = itertools.count(1)

    def __init__(self, sim: Simulator, nodes: list[ReplicaNode], mode: str = BASIC):
        if mode not in (BASIC, OPT, FULL):
            raise ValueError(f"unknown SRCA mode {mode!r}")
        expected = DEFERRED if mode == BASIC else LOCKING
        for node in nodes:
            if node.db.conflict_detection != expected:
                raise ValueError(
                    f"mode {mode!r} needs {expected!r} databases, "
                    f"{node.name} is {node.db.conflict_detection!r}"
                )
        self.sim = sim
        self.mode = mode
        self.nodes = nodes
        self.managers = [
            ReplicaManager(
                sim,
                node,
                strict_serial=(mode == BASIC),
                hole_sync=(mode == FULL),
            )
            for node in nodes
        ]
        self.certifier = Certifier()
        self._next_replica = 0
        self.commits = 0
        self.certification_aborts = 0

    # -- step I.1: begin -----------------------------------------------------------

    def begin(self, replica: Optional[int] = None) -> Generator[Any, Any, SrcaTxn]:
        """Choose a local replica and start the transaction there.

        ``Ti.cert := lastcommitted_tid_k`` is read atomically with the DB
        begin (no yields between them = Fig. 1's dbmutex).
        """
        if replica is None:
            replica = self._next_replica
            self._next_replica = (self._next_replica + 1) % len(self.nodes)
        manager = self.managers[replica]
        yield from manager.wait_local_start()
        gid = f"srca-g{next(self._gids)}"
        cert = manager.last_committed_tid
        txn = manager.db.begin(gid=gid)
        return SrcaTxn(gid=gid, replica=replica, txn=txn, cert=cert)

    # -- step I.2: reads and writes ---------------------------------------------------

    def execute(self, stxn: SrcaTxn, sql: str, params: tuple = ()):
        """Forward one statement to the local replica."""
        manager = self.managers[stxn.replica]
        result = yield from manager.db.execute(stxn.txn, sql, params)
        return result

    # -- step I.3: commit -----------------------------------------------------------

    def commit(self, stxn: SrcaTxn) -> Generator[Any, Any, str]:
        """Retrieve the writeset, validate, and drive the global commit."""
        manager = self.managers[stxn.replica]
        if not stxn.active:
            raise InvalidTransactionState(f"{stxn.gid} is not active")
        writeset = manager.db.get_writeset(stxn.txn)
        if not writeset:
            yield from manager.db.commit(stxn.txn)
            return COMMITTED
        # Validation (atomic: no yields). BASIC uses the certificate from
        # begin against all validated writesets; OPT/FULL use adjustment 1.
        if self.mode == BASIC:
            record = WsRecord(stxn.gid, writeset, cert=stxn.cert)
            ok = self.certifier.validate(record)
        else:
            ok = not manager.queue.overlaps(writeset)
            if ok:
                record = WsRecord(
                    stxn.gid, writeset, cert=self.certifier.last_validated_tid
                )
                certified = self.certifier.validate(record)
                if not certified:  # cert was read just now: cannot conflict
                    raise AssertionError(f"certification of {stxn.gid} failed")
        if not ok:
            manager.db.abort(stxn.txn)
            self.certification_aborts += 1
            return ABORTED
        # Append to every replica's queue (same atomic step).
        local_entry: Optional[Entry] = None
        for index, mgr in enumerate(self.managers):
            entry = Entry(record, local_txn=stxn.txn if index == stxn.replica else None)
            if index == stxn.replica:
                local_entry = entry
            mgr.enqueue(entry)
        assert local_entry is not None
        yield local_entry.done.wait()
        self.commits += 1
        return COMMITTED

    # -- convenience ----------------------------------------------------------------

    def drain(self) -> Generator[Any, Any, None]:
        """Wait until every to-commit queue is empty (test helper)."""
        for manager in self.managers:
            while len(manager.queue):
                entry = manager.queue.entries[0]
                yield entry.done.wait()
