"""The database replica: transactions, snapshot isolation, writesets.

One :class:`Database` is one replica.  Its concurrency semantics follow
paper §4's description of PostgreSQL:

* ``conflict_detection="locking"`` (default, §4): writers take row locks
  during execution and version-check on grant — *first-updater-wins*.
* ``conflict_detection="deferred"`` (§3's idealised DB): writes never
  block; write/write conflicts are checked atomically at commit.

All potentially blocking entry points (``execute``, ``commit``,
``apply_writeset``) are simulation coroutines (use ``yield from``).
"""

from __future__ import annotations

import gc
import itertools
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.errors import (
    IntegrityError,
    InvalidTransactionState,
    SerializationFailure,
    SQLError,
)
from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.storage.catalog import Catalog, Table, TableSchema
from repro.storage.locks import LockManager
from repro.storage.versions import Version
from repro.storage.writeset import DELETE, INSERT, UPDATE, WriteOp, WriteSet
from repro.sql import executor as sql_executor
from repro.sql.parser import parse_cached
from repro.sql.plan import plan_for

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"

LOCKING = "locking"
DEFERRED = "deferred"


class collector_paused:
    """Holds CPython's cyclic collector off for one bulk install: a
    ``bulk_load`` or a whole snapshot (``with collector_paused(): ...``).

    An install allocates a row tuple and a version per row and frees
    nothing, so the collector would run every few hundred rows
    and re-scan a heap in which nothing can be garbage: installed rows
    hold no reference cycles, and nothing yields inside an install.
    The caller's collector state comes back on the way out, error or
    not; a pause nested in another leaves the collector off.  Giving it
    back is the last thing the install does, so the one young-generation
    pass over what it built runs at the caller's next allocation.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            gc.enable()


class CostModel:
    """Service-time model hooks; subclass to calibrate (see bench.costs).

    Every hook returns ``(cpu_seconds, disk_seconds)`` charged against the
    replica's CPU/disk resources.
    """

    def statement(
        self, kind: str, rows_examined: int, rows_returned: int, rows_written: int
    ) -> tuple[float, float]:
        raise NotImplementedError

    def writeset_apply(self, n_ops: int) -> tuple[float, float]:
        raise NotImplementedError

    def commit(self, n_writes: int) -> tuple[float, float]:
        raise NotImplementedError


class NullCostModel(CostModel):
    """Zero-cost model: pure-correctness runs take no virtual time."""

    def statement(self, kind, rows_examined, rows_returned, rows_written):
        return (0.0, 0.0)

    def writeset_apply(self, n_ops):
        return (0.0, 0.0)

    def commit(self, n_writes):
        return (0.0, 0.0)


class Transaction:
    """A database-local transaction handle.

    ``gid`` is the cluster-wide identifier the middleware stamps on both
    the local execution and all remote writeset applications of one client
    transaction; standalone engine users get an auto-generated one.
    """

    _ids = itertools.count(1)

    __slots__ = (
        "xid",
        "gid",
        "snapshot_csn",
        "status",
        "remote",
        "writes",
        "write_order",
        "readset",
        "dependent_reads",
        "rows_examined",
        "db",
    )

    def __init__(self, db: "Database", gid: str, snapshot_csn: int, remote: bool):
        self.db = db
        self.xid = next(self._ids)
        self.gid = gid
        self.snapshot_csn = snapshot_csn
        self.status = ACTIVE
        self.remote = remote
        self.writes: dict[tuple[str, Any], WriteOp] = {}
        self.write_order: list[tuple[str, Any]] = []
        self.readset: set[tuple[str, Any]] = set()
        #: keys whose *values* fed into this transaction's writes or
        #: results — ``readset`` minus purely *locating* reads (the row
        #: lookup an UPDATE does just to find its target).  Certification
        #: salvage keys off this; the SI audit keeps using ``readset``.
        self.dependent_reads: set[tuple[str, Any]] = set()
        self.rows_examined = 0

    @property
    def active(self) -> bool:
        return self.status == ACTIVE

    def __repr__(self) -> str:
        return f"<Txn {self.gid} xid={self.xid} {self.status} snap={self.snapshot_csn}>"


class Database:
    """One replica: catalog + version store + lock manager + history."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "db",
        conflict_detection: str = LOCKING,
        cost_model: Optional[CostModel] = None,
        cpu: Optional[Resource] = None,
        disk: Optional[Resource] = None,
    ):
        if conflict_detection not in (LOCKING, DEFERRED):
            raise ValueError(f"bad conflict_detection {conflict_detection!r}")
        self.sim = sim
        self.name = name
        self.conflict_detection = conflict_detection
        self.cost_model = cost_model or NullCostModel()
        self.cpu = cpu
        self.disk = disk
        self.catalog = Catalog()
        self.locks = LockManager(name=f"{name}.rowlocks")
        self.csn = 0
        #: every CREATE this engine ran, in order: the schema a checkpoint
        #: or a state transfer carries to a fresh engine
        self.ddl_log: list[str] = []
        #: ordered begin/commit event log consumed by repro.si.onecopy.KeyedAudit
        self.history: list[tuple] = []
        self.commits = 0
        self.aborts = 0
        #: defer first-updater-wins aborts for *blind* staged updates to
        #: global certification (set by salvage-enabled deployments: the
        #: certifier either refreshes the cert — re-homing the commit
        #: after its predecessor — or aborts, so deferring never commits
        #: a conflict the eager check would have caught)
        self.defer_blind_ww = False
        #: optional backpressure gate for the deferral: when set and
        #: returning False, blind stages fall back to the eager path
        #: (lock + first-updater check) so overload sheds via aborts
        self.defer_gate: Optional[Callable[[], bool]] = None
        self.deferred_ww = 0
        self._active: set[Transaction] = set()
        self._committed_gids: set[str] = set()

    # ------------------------------------------------------------------ DDL

    def create_table(self, schema: TableSchema) -> Table:
        return self.catalog.create_table(schema)

    def create_index(self, table: str, column: str) -> None:
        self.catalog.table(table).create_index(column)

    def run_ddl(self, sql: str) -> None:
        """Execute a CREATE TABLE/INDEX statement outside any transaction.

        Replicated deployments deliver DDL through the total-order channel
        so every replica applies it at the same logical point; it is
        non-transactional, like most DDL in practice.
        """
        from repro.sql import executor as sql_executor

        statement = parse_cached(sql)
        if statement.kind == "create_table":
            sql_executor._create_table(self, statement)
        elif statement.kind == "create_index":
            sql_executor._create_index(self, statement)
        else:
            raise SQLError(f"run_ddl only accepts CREATE statements: {sql!r}")
        self.ddl_log.append(sql)

    def bulk_load(self, table_name: str, rows: Iterable[dict]) -> int:
        """Install initial rows outside any transaction (bootstrap only).

        Rows get csn 0 and are visible to every snapshot.  Only legal
        before the first commit, so replicas can be seeded identically
        without polluting the recorded schedule history.
        """
        if self.csn != 0:
            raise InvalidTransactionState("bulk_load only before first commit")
        return self._install_rows(table_name, rows, 0, "bulk")

    def _install_rows(self, table_name: str, rows: Iterable[dict], csn: int, source: str) -> int:
        """Install row images as single versions at ``csn``; a
        duplicate-key error names their ``source``."""
        table = self.catalog.table(table_name)
        validate_row = table.schema.validate_row
        pk_position = table.schema.pk_position
        heads = table.rows
        install = table.install
        count = 0
        with collector_paused():
            for values in rows:
                row = validate_row(values)
                pk = row[pk_position]
                if pk in heads:
                    raise IntegrityError(f"duplicate {source} key {pk!r} in {table_name!r}")
                install(pk, Version(csn, row))
                count += 1
        return count

    def explain(self, sql: str, params: tuple = ()) -> tuple:
        """The access path the executor will use for ``sql``.

        ``("pk", n)`` point lookups, ``("index", column, n)`` secondary
        index probes, or ``("scan",)``.  Diagnostics only; DDL and
        joined queries report the base table's path.
        """
        statement = parse_cached(sql)
        if statement.kind in ("create_table", "create_index"):
            return ("ddl",)
        if statement.kind == "insert":
            return ("pk", len(statement.rows))
        table = self.catalog.table(statement.table)
        plan = plan_for(statement, table.schema)
        return sql_executor.choose_path(table, plan, params)

    def has_committed(self, gid: str) -> bool:
        """Did a transaction with this global id commit here?  Used by a
        failing-over middleware to make writeset re-application
        idempotent (Fig. 3(b) takeover)."""
        return gid in self._committed_gids

    def abort_all_active(self) -> int:
        """Abort every active transaction.

        Models what a real DBMS does when the connections of a crashed
        middleware break: "upon connection loss, database systems abort
        the active transaction on the connection" (§5.1).
        """
        victims = list(self._active)
        for txn in victims:
            self.abort(txn)
        return len(victims)

    def version_count(self) -> int:
        """Total stored versions across all tables (diagnostics)."""
        return sum(
            1
            for table in self.catalog.tables.values()
            for head in table.rows.values()
            for _version in head
        )

    def export_committed(self) -> dict[str, list[dict]]:
        """Latest committed row images per table (recovery state transfer).

        Captured atomically (no yields): this is the consistent state a
        donor replica ships to a recovering one at the sync point.
        """
        out: dict[str, list[dict]] = {}
        for name, table in self.catalog.tables.items():
            image = table.schema.image
            out[name] = [
                image(head.values) for head in table.rows.values()
                if head.values is not None
            ]
        return out

    # ------------------------------------------------------------- recovery

    def install_writeset(self, gid: str, ops: Iterable[WriteOp]) -> Optional[int]:
        """Install a certified writeset's after-images directly from a
        durable log record (replay path — no transaction, no locks, no
        history events, no cost charges).

        Replay happens before the replica serves traffic: each record
        bumps the csn and installs and prunes its images, exactly as the
        original commit did.
        Idempotent per gid, mirroring :meth:`has_committed`.
        """
        if gid in self._committed_gids:
            return None
        ops = list(ops)
        csn: Optional[int] = None
        if ops:
            self.csn += 1
            csn = self.csn
            self._install(csn, ops)
        self._committed_gids.add(gid)
        self.commits += 1
        return csn

    def load_checkpoint(self, rows: dict, csn: int) -> None:
        """Restore committed state from a checkpoint (fresh replicas only).

        Every row is installed as one version at the checkpoint's ``csn``
        and the engine resumes from there, so subsequent log replay
        installs at strictly increasing csns.  The caller has already run
        the checkpoint's DDL.
        """
        if self.csn != 0 or self.commits or self._active:
            raise InvalidTransactionState(
                "load_checkpoint only into a fresh database"
            )
        for table_name, table_rows in rows.items():
            self._install_rows(table_name, table_rows, csn, "checkpoint")
        self.csn = csn

    def install_snapshot(self, ddl: Iterable[str], rows: dict, csn: int, writesets=()) -> None:
        """Load another engine's state into this fresh one: its DDL, its
        committed row images at its ``csn``, then ``writesets`` — the
        ``(gid, ops)`` it had certified but not yet applied — in order.

        The one way a snapshot enters an engine: checkpoint restore, a
        full state transfer and a reader's snapshot join all call it.
        """
        with collector_paused():
            for sql in ddl:
                self.run_ddl(sql)
            self.load_checkpoint(rows, csn)
            for gid, ops in writesets:
                self.install_writeset(gid, ops)

    # ------------------------------------------------------- transaction API

    def begin(self, gid: Optional[str] = None, remote: bool = False) -> Transaction:
        """Start a transaction on the current snapshot (never blocks).

        Taking the snapshot and reading ``self.csn`` happen atomically
        w.r.t. commits because the kernel is cooperative and ``begin``
        never yields — the role of SRCA's ``dbmutex``.
        """
        txn = Transaction(
            self,
            gid=gid or f"{self.name}:t{next(Transaction._ids)}",
            snapshot_csn=self.csn,
            remote=remote,
        )
        self._active.add(txn)
        # the trailing sim timestamp is appended LAST so positional
        # consumers of the older 4-tuple shape keep working
        self.history.append(
            ("begin", txn.gid, txn.snapshot_csn, remote, self.sim.now)
        )
        return txn

    def _check_active(self, txn: Transaction) -> None:
        if txn.status != ACTIVE:
            raise InvalidTransactionState(f"{txn!r} is not active")

    def execute(
        self, txn: Transaction, sql: str, params: tuple = ()
    ) -> Generator[Any, Any, "sql_executor.Result"]:
        """Run one SQL statement inside ``txn`` (may block on row locks)."""
        self._check_active(txn)
        statement = parse_cached(sql)
        try:
            result = yield from sql_executor.execute(self, txn, statement, params)
        except Exception:
            # Statement failure poisons the transaction, like PostgreSQL.
            self.abort(txn)
            raise
        yield from self._charge(
            self.cost_model.statement(
                statement.kind,
                result.rows_examined,
                result.rowcount,
                result.rows_written,
            )
        )
        return result

    def charge_commit(self, n_writes: int) -> Generator[Any, Any, None]:
        """Charge the commit-time cost (the fsync-equivalent) alone.

        The group-commit path pays this once for a run of transactions
        and then installs each with ``commit(txn, charge=False)``.
        """
        yield from self._charge(self.cost_model.commit(n_writes))

    def commit(
        self, txn: Transaction, charge: bool = True
    ) -> Generator[Any, Any, Optional[int]]:
        """Commit ``txn``; returns the csn (None for read-only commits).

        In ``deferred`` mode this performs the write/write conflict check
        the idealised DB of §3 does at commit time.  ``charge=False``
        skips the commit-cost charge — the caller already paid it through
        :meth:`charge_commit` (group commit).
        """
        self._check_active(txn)
        if charge:
            yield from self.charge_commit(len(txn.writes))
        # the transaction may have been aborted while the commit work was
        # queued (e.g. abort_all_active after a middleware crash)
        self._check_active(txn)
        # From here on: no yields — install is atomic.
        if self.conflict_detection == DEFERRED:
            for key in txn.write_order:
                latest = self.catalog.table(key[0]).rows.get(key[1])
                if latest is not None and latest.csn > txn.snapshot_csn:
                    self.abort(txn)
                    raise SerializationFailure(
                        f"{txn.gid}: commit-time conflict on {key!r}"
                    )
        txn.status = COMMITTED
        self._active.discard(txn)
        csn: Optional[int] = None
        if txn.writes:
            self.csn += 1
            csn = self.csn
            self._install(csn, [txn.writes[key] for key in txn.write_order])
        self._committed_gids.add(txn.gid)
        self.history.append(
            (
                "commit",
                txn.gid,
                csn,
                frozenset(txn.readset),
                frozenset(txn.writes),
                self.sim.now,
            )
        )
        self.commits += 1
        self.locks.release_all(txn)
        return csn

    def abort(self, txn: Transaction) -> None:
        """Roll back: drop staged writes, release locks (never blocks)."""
        if txn.status == ABORTED:
            return
        if txn.status == COMMITTED:
            raise InvalidTransactionState(f"{txn!r} already committed")
        txn.status = ABORTED
        self._active.discard(txn)
        self.aborts += 1
        self.locks.release_all(txn)

    # ------------------------------------------------------- writeset module

    def get_writeset(self, txn: Transaction) -> WriteSet:
        """Pre-commit writeset retrieval (the paper's extension)."""
        self._check_active(txn)
        return WriteSet([txn.writes[key] for key in txn.write_order])

    def apply_writeset(
        self, txn: Transaction, writeset: WriteSet, charge: bool = True
    ) -> Generator[Any, Any, None]:
        """Replay a remote transaction's after images inside ``txn``.

        May block on locks held by local transactions and may raise
        :class:`SerializationFailure`/:class:`DeadlockDetected`; the
        middleware retries with a fresh transaction until it succeeds
        (§4.2 "the middleware has to reapply the writeset").

        ``charge=False`` skips the apply CPU charge — for re-homed HOME
        commits whose statements this replica already executed.
        """
        self._check_active(txn)
        for op in writeset:
            yield from self._lock_and_check(txn, op.table, op.pk)
            self._stage(txn, op)
        if charge:
            yield from self._charge(
                self.cost_model.writeset_apply(len(writeset))
            )

    # -------------------------------------------------- executor entry points

    def read_row(
        self, txn: Transaction, table: Table, pk: Any, locating: bool = False
    ) -> Optional[tuple]:
        """Snapshot read of one row (plus read-your-own-writes), as the
        stored row tuple; an own staged write reads in the same form.

        ``locating`` marks reads done only to *find* a write's target row
        (UPDATE/DELETE row lookup): they join ``readset`` (the SI audit
        sees every read) but not ``dependent_reads``, so a blind write
        doesn't count its own target lookup as a value dependency.
        """
        key = (table.name, pk)
        if key in txn.writes:
            image = txn.writes[key].values
            txn.readset.add(key)
            if not locating:
                txn.dependent_reads.add(key)
            return None if image is None else table.schema.row_of(image)
        head = table.rows.get(pk)
        if head is None:
            return None
        values = head.visible_values(txn.snapshot_csn)
        if values is not None:
            txn.readset.add(key)
            if not locating:
                txn.dependent_reads.add(key)
        return values

    def scan(
        self, txn: Transaction, table: Table, candidates: Optional[Iterable[Any]] = None
    ) -> Iterator[tuple[Any, tuple]]:
        """Iterate visible rows (candidate pks, or the whole table: its
        rows in table order, then the ones this transaction inserted).

        Each pk counts as examined.  Its row tuple is the transaction's
        own write, or the version the snapshot reads, found by walking
        the row's version chain here rather than through a
        :meth:`read_row` call per pk; a row read joins ``readset`` and
        ``dependent_reads`` as :meth:`read_row` would have it.
        """
        name = table.name
        heads = table.rows
        own = {key[1]: op for key, op in txn.writes.items() if key[0] == name}
        if candidates is None:
            pairs: list[tuple[Any, Optional[Version]]] = list(heads.items())
            if own:
                pairs += [(pk, None) for pk in own if pk not in heads]
        else:
            pairs = [(pk, heads.get(pk)) for pk in candidates]
        snapshot = txn.snapshot_csn
        readset = txn.readset
        dependent = txn.dependent_reads
        for pk, version in pairs:
            txn.rows_examined += 1
            if pk in own:
                values = own[pk].values
                if values is not None:
                    values = table.schema.row_of(values)
            else:
                while version is not None and version.csn > snapshot:
                    version = version.prev
                if version is None or version.values is None:
                    continue
                values = version.values
            key = (name, pk)
            readset.add(key)
            dependent.add(key)
            if values is not None:
                yield pk, values

    def stage_insert(
        self, txn: Transaction, table: Table, values: dict[str, Any]
    ) -> Generator[Any, Any, None]:
        schema = table.schema
        row = schema.validate_row(values)
        pk = row[schema.pk_position]
        key = (table.name, pk)
        if key in txn.writes and txn.writes[key].values is not None:
            raise IntegrityError(f"duplicate key {pk!r} in {table.name!r}")
        yield from self._lock_and_check(txn, table.name, pk)
        latest = table.rows.get(pk)
        if latest is not None and not latest.is_delete:
            self.abort(txn)
            raise IntegrityError(f"duplicate key {pk!r} in {table.name!r}")
        self._check_foreign_keys(txn, table, row)
        self._stage(txn, WriteOp(table.name, pk, INSERT, schema.image(row)))

    def stage_update(
        self, txn: Transaction, table: Table, pk: Any,
        new_values: dict[str, Any], blind: bool = False,
    ) -> Generator[Any, Any, None]:
        row = table.schema.validate_row(new_values)
        yield from self._lock_and_check(txn, table.name, pk, blind=blind)
        self._check_foreign_keys(txn, table, row)
        previous = txn.writes.get((table.name, pk))
        op = INSERT if previous is not None and previous.op == INSERT else UPDATE
        self._stage(txn, WriteOp(table.name, pk, op, table.schema.image(row)))

    def stage_delete(
        self, txn: Transaction, table: Table, pk: Any
    ) -> Generator[Any, Any, None]:
        yield from self._lock_and_check(txn, table.name, pk)
        self._check_no_referencing_rows(txn, table, pk)
        self._stage(txn, WriteOp(table.name, pk, DELETE, None))

    def _check_foreign_keys(
        self, txn: Transaction, table: Table, row: tuple
    ) -> None:
        """Child-side FK check: every non-NULL reference must resolve.

        Checked at the *local* replica under the transaction's snapshot
        (remote writeset application trusts the certified after-images).
        Like any SI scheme that certifies only writes, a cross-replica
        delete/insert race on a parent row is not detected — the paper's
        "only conflicts between write operations are detected" caveat.
        """
        positions = table.schema.positions
        for column, parent_name in table.schema.foreign_keys:
            value = row[positions[column]]
            if value is None:
                continue
            parent = self.catalog.table(parent_name)
            if self.read_row(txn, parent, value) is None:
                self.abort(txn)
                raise IntegrityError(
                    f"{table.name}.{column}={value!r} references no row "
                    f"in {parent_name!r}"
                )

    def _check_no_referencing_rows(
        self, txn: Transaction, table: Table, pk: Any
    ) -> None:
        """Parent-side FK check (NO ACTION): reject the delete if any
        visible child row still references it."""
        for child_name, column in self.catalog.referencers.get(table.name, ()):
            child = self.catalog.table(child_name)
            position = child.schema.positions[column]
            candidates = child.index_candidates(column, pk)
            for _child_pk, values in self.scan(txn, child, candidates=candidates):
                if values[position] == pk:
                    self.abort(txn)
                    raise IntegrityError(
                        f"cannot delete {table.name}[{pk!r}]: referenced by "
                        f"{child_name}.{column}"
                    )

    # ----------------------------------------------------------- internals

    def _install(self, csn: int, ops: Iterable[WriteOp]) -> None:
        """Install one commit's after-images at ``csn`` and prune each
        written row to the versions a snapshot can still read: the
        newest, which every later transaction reads (it begins at
        ``csn`` or above), and the one each active transaction's
        snapshot reads.  Code that reads a past snapshot must therefore
        hold it as an active transaction (``begin``).  The after-image
        dicts are stored as row tuples."""
        snapshots = sorted({txn.snapshot_csn for txn in self._active}, reverse=True)
        for op in ops:
            table = self.catalog.table(op.table)
            image = op.values
            row = None if image is None else table.schema.row_of(image)
            table.install(op.pk, Version(csn, row))
            table.prune(op.pk, snapshots)

    def committed_after_snapshot(self, key: tuple, snapshot_csn: int) -> bool:
        """True iff ``key``'s newest committed version postdates the
        snapshot.  The middleware's commit-time re-check for blind staged
        updates that skipped the eager first-updater check under
        ``defer_blind_ww``: a hit means a concurrent writer committed in
        our lifetime, so committing the original local handle in place
        would record an SI-ww anomaly — the commit must re-home."""
        table_name, pk = key
        latest = self.catalog.table(table_name).rows.get(pk)
        return latest is not None and latest.csn > snapshot_csn

    def _lock_and_check(
        self, txn: Transaction, table_name: str, pk: Any, blind: bool = False
    ) -> Generator[Any, Any, None]:
        """Lock the row, then first-updater-wins version check (§4).

        In ``deferred`` mode both steps are skipped: conflicts are found
        at commit.  With ``defer_blind_ww`` a *blind* staged update skips
        both too: the write owes the row nothing, so the lock (which
        would convoy local writers behind a full certification round
        trip) protects nothing, and the middleware re-checks the version
        at commit time — any transaction that raced a concurrent writer
        is then re-homed behind it or aborted by certification, never
        committed in place.
        """
        if self.conflict_detection == DEFERRED:
            return
        if blind and self.defer_blind_ww and (
            self.defer_gate is None or self.defer_gate()
        ):
            self.deferred_ww += 1
            return
        key = (table_name, pk)
        try:
            yield from self.locks.acquire(txn, key)
        except Exception:
            self.abort(txn)
            raise
        if key in txn.writes:
            return  # own earlier write: no re-check
        latest = self.catalog.table(table_name).rows.get(pk)
        if latest is not None and latest.csn > txn.snapshot_csn:
            self.abort(txn)
            raise SerializationFailure(
                f"{txn.gid}: row {key!r} updated by concurrent committed txn"
            )

    def _stage(self, txn: Transaction, op: WriteOp) -> None:
        key = op.key
        if key not in txn.writes:
            txn.write_order.append(key)
        txn.writes[key] = op

    def _charge(self, cost: tuple[float, float]) -> Generator[Any, Any, None]:
        cpu_time, disk_time = cost
        if self.cpu is not None and cpu_time > 0:
            yield from self.cpu.use(cpu_time)
        if self.disk is not None and disk_time > 0:
            yield from self.disk.use(disk_time)

    # ----------------------------------------------------------- diagnostics

    @property
    def active_count(self) -> int:
        return len(self._active)

    def table_row_count(self, table: str) -> int:
        """Rows the newest committed state holds (diagnostics / tests)."""
        return sum(
            1 for head in self.catalog.table(table).rows.values()
            if head.values is not None
        )
