"""Exception taxonomy for the SI-Rep reproduction.

Exceptions are grouped by the subsystem that raises them.  Client-visible
errors (the ones a JDBC application would see) all derive from
:class:`DatabaseError`, mirroring how a driver surfaces SQLSTATE classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Misuse or internal failure of the discrete-event kernel."""


class SimulationStalled(SimulationError):
    """`run_process` ran out of events before the process finished.

    This almost always means a real deadlock among simulated processes
    (everyone is blocked and no timer is pending).
    """


class ProcessKilled(SimulationError):
    """Raised by `Process.join` when the joined process was killed."""


class QueueClosed(SimulationError):
    """``get()`` on a closed :class:`repro.sim.sync.Queue`.

    Pending items queued before the close are still delivered; only
    getters that would block forever (and later ``put``/``get`` calls)
    fail.
    """


class RuntimeStopped(SimulationError):
    """The runtime was stopped while a process was still blocked.

    Raised into pending ``OneShot``/``Event`` waiters by
    ``WallRuntime.stop()`` so an aborted wall-clock run unwinds
    instead of leaking blocked coroutines.
    """


# ---------------------------------------------------------------------------
# Database engine (client-visible subset mirrors PostgreSQL error classes)
# ---------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Base class for errors surfaced to database clients."""


class SQLError(DatabaseError):
    """Syntax or semantic error in a SQL statement."""


class CatalogError(SQLError):
    """Unknown/duplicate table, column, or index."""


class IntegrityError(DatabaseError):
    """Constraint violation (duplicate primary key, NOT NULL, type)."""


class TransactionAborted(DatabaseError):
    """The transaction was aborted and must be retried by the client."""


class SerializationFailure(TransactionAborted):
    """First-updater-wins version check failed (SQLSTATE 40001 analogue).

    Raised when a transaction tries to update a row whose last committed
    version was created by a concurrent, already-committed transaction.
    """


class DeadlockDetected(TransactionAborted):
    """The lock manager chose this transaction as a deadlock victim."""


class CertificationAborted(TransactionAborted):
    """Middleware validation found a write/write conflict with a
    concurrently validated transaction (Fig. 1 step I.3 / Fig. 4 step II)."""


class InvalidTransactionState(DatabaseError):
    """Operation issued on a transaction that is not active."""


class ReadOnlyViolation(DatabaseError):
    """A write (or DDL) statement reached a lazy read-only replica.

    The read tier applies the certified writeset stream but never
    certifies or votes, so it cannot accept updates; the routed driver
    normally prevents this by sending update transactions to a full
    replica."""


# ---------------------------------------------------------------------------
# Client driver / middleware connectivity
# ---------------------------------------------------------------------------

class ConnectionLost(DatabaseError):
    """The middleware replica serving this connection crashed.

    Per paper §5.4: the driver reconnects automatically; the active
    transaction (if any) is lost and the client must restart it.  The
    connection object itself remains usable.
    """


class TransactionOutcomeUnknownAborted(ConnectionLost):
    """A crash hit a commit in flight and the surviving replicas never
    received the writeset (case 3a): the transaction did not commit."""


class NoReplicaAvailable(DatabaseError):
    """Discovery found no live middleware replica to connect to."""


# ---------------------------------------------------------------------------
# Sharded deployment (repro.shard)
# ---------------------------------------------------------------------------

class ShardingError(DatabaseError):
    """Base class for partial-replication routing errors."""


class CrossShardWriteError(ShardingError):
    """An update transaction touched more than one replication group.

    Certification is per-group, so a multi-group update would need an
    atomic commitment protocol across groups; the router rejects it and
    rolls the transaction back on every group it touched.
    """


class CrossShardStatementError(ShardingError):
    """A single statement (e.g. a join) referenced tables owned by
    different replication groups; statements must be single-group."""


class PlacementError(ShardingError):
    """DDL or bulk load referenced a table the partitioner cannot place
    (unknown table under an explicit map, or conflicting re-placement)."""


# ---------------------------------------------------------------------------
# Group communication
# ---------------------------------------------------------------------------

class GcsError(ReproError):
    """Misuse of the group communication substrate."""


class NotAMember(GcsError):
    """The sending endpoint is not part of the current view."""
