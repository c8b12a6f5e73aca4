"""Wire protocol between the SI-Rep JDBC driver and a middleware replica.

One request/response pair per JDBC call — the paper notes SRCA pays one
client/middleware round trip per *statement* (vs. one per transaction for
the [20] baseline), which matters in Fig. 7.

The ``gid`` these messages carry doubles as the causal **trace id**
(``repro.obs.trace``): commit and inquiry traffic already names the
transaction, so its spans — including a survivor's in-doubt resolution
after a failover — land in the right trace with no extra fields here.

The replication messages at the end are the payloads of the total-order
multicast: ``NamedTuple`` types dispatched on field 0, ``kind``.  They
stay tuples because ``benchmarks/e2e/trace.py`` finds a writeset by
field 0 == ``"ws"`` and takes its gid from field 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro import errors
from repro.core.validation import WsRecord

COMMITTED = "committed"
ABORTED = "aborted"
#: internal delivery-loop outcome: the writeset committed via cert
#: refresh (salvage) and the home replica re-applies it remote-style;
#: clients still see COMMITTED
SALVAGED = "salvaged"


@dataclass(frozen=True)
class ExecuteReq:
    seq: int
    sql: str
    params: tuple = ()
    #: session consistency after failover: the middleware delays the
    #: statement until this transaction has committed locally, so the
    #: client reads its own writes on the new replica (§3's assignment
    #: rule, applied at reconnection time).
    after_gid: Optional[str] = None
    #: session-guarantee token (read-your-writes / monotonic reads): the
    #: serving replica delays the statement until its apply watermark —
    #: for a lazy read replica the last applied certification tid, for a
    #: full replica its commit csn (the two counters advance in lockstep
    #: over the same certified stream) — has reached this value.
    min_csn: Optional[int] = None
    #: trace coordinates of the routed driver's read_txn span: the
    #: serving replica records its watermark wait ("staleness_wait")
    #: against this context so the client-side critical path is
    #: attributable end to end (None when tracing is off)
    ctx: Optional[Any] = None


@dataclass(frozen=True)
class ExecuteResp:
    seq: int
    ok: bool
    gid: Optional[str] = None  # transaction identifier (§5.4 failover)
    rows: Optional[list] = None
    columns: tuple = ()
    rowcount: int = 0
    error: Optional[tuple[str, str]] = None  # (exception class name, message)
    #: CSN of the snapshot the active transaction reads from; a sharded
    #: router collects one per replication group into the snapshot
    #: vector that stamps a cross-shard read-only transaction.
    snapshot_csn: Optional[int] = None


@dataclass(frozen=True)
class CommitReq:
    seq: int


@dataclass(frozen=True)
class CommitResp:
    seq: int
    outcome: str  # committed | aborted
    error: Optional[tuple[str, str]] = None
    #: True when a writeset was certified and will commit on every
    #: replica (drives the driver's session-consistency tracking)
    replicated: bool = False
    #: certification tid of a replicated commit — the session token a
    #: client hands back on reads (``ExecuteReq.min_csn``) so a lazy
    #: read replica serves its snapshot only at-or-after this commit
    csn: Optional[int] = None


@dataclass(frozen=True)
class RollbackReq:
    seq: int


@dataclass(frozen=True)
class RollbackResp:
    seq: int


@dataclass(frozen=True)
class InquireReq:
    """In-doubt transaction inquiry after a failover (§5.4 case 3)."""

    seq: int
    gid: str
    crashed: str  # address of the replica the driver lost


@dataclass(frozen=True)
class InquireResp:
    seq: int
    outcome: str  # committed | aborted
    #: set when the inquiry itself failed middleware-side: the outcome
    #: field is then meaningless and the driver must surface the error
    #: instead of treating the in-doubt transaction as resolved
    error: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class ProcRequest:
    """Whole-transaction request for the [20] baseline: the client ships
    the procedure name, parameters, and the pre-declared table set."""

    seq: int
    proc: str
    params: tuple = ()
    readonly: bool = False


@dataclass(frozen=True)
class ProcResp:
    seq: int
    outcome: str
    rows: Optional[list] = None
    error: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class Transfer:
    """What a donor ships a recovering or joining replica (§5.4 / §8's
    online recovery): the log records it missed, ``(from_seq, donor
    tip]``, over a state ``image`` (a :class:`~repro.durable.checkpoint.Checkpoint`).

    Three shapes.  A delta (``image`` None) rests on the joiner's own
    durable log below ``from_seq``.  When the donor's log no longer
    reaches back that far (truncated), ``image`` is the donor's newest
    checkpoint and ``from_seq`` its seq.  A full transfer has
    ``from_seq`` None, as a :class:`SyncMessage` asking for one has: no
    records, the donor's whole state as ``image`` at its log tip, and
    ``pending``, the certified writesets still in the donor's to-commit
    queue.  ``outcomes`` are the donor's in-doubt outcomes that
    ``image`` does not carry already.  A delta's size is proportional to
    downtime, not database size (§8).
    """

    donor: str
    from_seq: Optional[int]  # records start strictly after this
    records: tuple  # LogRecords, ascending seq
    image: Any  # Checkpoint, or None for a pure delta
    pending: tuple  # WsRecords still in the donor's to-commit queue
    outcomes: dict  # gid -> committed/aborted (for in-doubt inquiries)

    def nbytes(self) -> int:
        """Approximate transfer size (recovery accounting / benchmarks)."""
        size = sum(record.nbytes for record in self.records)
        if self.image is not None:
            size += self.image.nbytes
        return size


# -- replication messages: the payloads of the total-order multicast ----------

WS = "ws"
SYNC = "sync"
DDL = "ddl"
PROC = "proc"


class WritesetMessage(NamedTuple):
    """A transaction's writeset, multicast for global validation (Fig. 4
    step I.2.g).  ``readset``/``blind`` feed salvage (see ``WsRecord``);
    ``rehome`` marks a deferred blind overlap; ``scount``/``acked`` are
    the sender's send counter and acked horizon for the certifier GC
    floor (0 = untracked).  The [20] comparator sends it with ``cert=0``."""

    kind: str = WS
    gid: str = ""
    writeset: Any = None  # WriteSet
    cert: int = 0
    sender: str = ""
    ctx: Optional[Any] = None  # TraceContext
    readset: frozenset = frozenset()
    blind: frozenset = frozenset()
    rehome: bool = False
    scount: int = 0
    acked: int = 0

    def to_record(self) -> WsRecord:
        return WsRecord(
            self.gid, self.writeset, cert=self.cert, sender=self.sender,
            readset=self.readset, blind=self.blind,
        )

    def conflict_info(self) -> tuple:
        """What the sequencer's reorder pass reads: (keys, cert)."""
        return self.writeset.keys, self.cert


class SyncMessage(NamedTuple):
    """Recovery sync marker: ``target`` asks ``donor`` for its state at
    this total-order point.  ``from_seq`` is the target's durable log tip
    when it asks for a delta, None for a full state transfer."""

    kind: str = SYNC
    target: str = ""
    donor: str = ""
    from_seq: Optional[int] = None


class DdlMessage(NamedTuple):
    """A DDL statement every replica runs at the same total-order point."""

    kind: str = DDL
    ddl_id: int = 0
    sender: str = ""
    sql: str = ""


class ProcMessage(NamedTuple):
    """The [20] comparator's ordered procedure call: every replica
    enqueues its table locks in delivery order, ``origin`` executes it."""

    kind: str = PROC
    rid: str = ""
    proc: str = ""
    params: tuple = ()
    origin: str = ""


# -- control plane: what a replica reports to the deployment around it -------


class ReplicaStatus(NamedTuple):
    """One replica's state as its cluster sees it, built by
    :meth:`MiddlewareReplica.status` in one step.  Every field has a
    reader in the cluster; a field named like a ``metrics()`` per-replica
    key is that key's value.  The log fields are None when the replica
    does not log."""

    alive: bool
    #: out of the offline audit: a recovery that has not installed yet,
    #: or a history that holds row images (checkpoint, full state)
    recovered: bool
    #: holds a state to serve from: not a recovery still waiting for its
    #: donor's state (what a donor must be)
    installed: bool
    active_sessions: int
    update_commits: int
    readonly_commits: int
    certification_aborts: int
    salvaged: int
    salvage_rejects: int
    certifier_window: int
    certifier_gc_floor: int
    certifier_gc_collected: int
    certifier_floor_aborts: int
    tocommit_queue_len: int
    tocommit_appended: int
    tocommit_batches: int
    remote_apply_retries: int
    group_commit_flushes: int
    group_commit_mean_size: float
    hole_wait_fraction: float
    db_commits: int
    db_aborts: int
    cpu_utilization: float
    #: the recovery stats of this incarnation ({} if it did not recover)
    recovery: dict
    #: the adaptive batch window's contention signal
    certifier_decisions: int
    certifier_rejected: int
    oldest_hole_age: float
    #: the sampler's hole gauge and the cluster's hole-wait fraction
    holes: int
    hole_start_attempts: int
    hole_start_waits: int
    #: group-commit amortisation across replicas (bench harness)
    group_commit_synced: int
    #: blind stages that skipped the engine's eager first-updater check
    deferred_ww: int
    #: total-order seq of the last delivery this replica's state covers:
    #: where a reader joining from it subscribes
    feed_seq: int
    log_tip_seq: Optional[int] = None
    log_durable_seq: Optional[int] = None
    log_depth: Optional[int] = None
    log_bytes: Optional[int] = None
    log_flushes: Optional[int] = None
    log_fsyncs: Optional[int] = None
    log_file_opens: Optional[int] = None
    checkpoints: Optional[int] = None
    #: can our own checkpoint + log rebuild us (cold-restart leveling)
    can_replay: Optional[bool] = None
    #: checkpoint files that failed to load and were skipped
    checkpoints_unreadable: Optional[tuple[str, ...]] = None


#: exception class registry for (de)marshalling errors across the channel
_ERROR_CLASSES = {
    name: getattr(errors, name)
    for name in dir(errors)
    if isinstance(getattr(errors, name), type)
    and issubclass(getattr(errors, name), Exception)
}


def marshal_error(exc: BaseException) -> tuple[str, str]:
    return (type(exc).__name__, str(exc))


def unmarshal_error(info: tuple[str, str]) -> Exception:
    name, message = info
    cls = _ERROR_CLASSES.get(name, errors.DatabaseError)
    return cls(message)
