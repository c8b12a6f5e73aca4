"""The durable writeset log: segmented, append-only, replayable.

Every middleware replica appends one :class:`LogRecord` per *certified*
writeset, in validation order, plus records for replicated DDL and the
bootstrap schema/data (so the log is self-contained from sequence 1).
Because certification is deterministic and DDL travels on the same
total-order channel, every replica's log holds the **same records at the
same sequence numbers** — which is what makes delta catch-up recovery
possible: a rejoining replica can fetch exactly the suffix it misses
from any peer's log.

Durability is two-staged, mirroring a WAL:

* :meth:`WritesetLog.append` puts a record in the in-memory **tail**
  (cheap, synchronous — called from the delivery loop);
* a flush (driven by the replica's flusher daemon through
  :meth:`flush`) makes the tail durable as a **group**: one disk charge,
  and on disk one ``write`` plus one ``fsync`` — the same coalescing
  idea as :class:`repro.core.tocommit.GroupCommitLog`.  The ``fsync``
  goes through the runtime's ``run_blocking`` (an I/O thread on the wall
  clock), so the loop keeps serving while it runs; records appended
  meanwhile form the next group.  The durable watermark (``durable_seq``)
  moves only after the force returns.  A crash loses the tail
  (``drop_tail``), never flushed records.

A segment file's directory entry is made durable too: the force of the
group that created the file also syncs the directory, and unlinked
segment files (truncation, rebase, a dropped tail's new file) are synced
away before the next segment file is written.

With ``directory`` set, durable records are additionally written to
segment files — one line per record, a one-letter kind tag followed by
the record's JSON text — so a cold restart can rebuild the cluster from
disk; without it the segments live in memory and survive replica
incarnations through the owning :class:`repro.durable.store.DurabilityStore`.

A disk-backed log keeps in memory only the tail and the active segment
(at most ``segment_records`` durable records): once a segment is sealed
and its last group forced, its records leave memory, and
:meth:`WritesetLog.records_after` — which only recovery calls: a delta
transfer, a reader join, a cold restart — reads them back from the
segment file.  A cold restart parses every file but keeps only the
active segment's records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generator, Optional

from repro.errors import ReproError
from repro.storage.writeset import WriteOp

WS = "ws"
DDL = "ddl"
LOAD = "load"

#: segment-file line tag earlier versions wrote for genesis DDL; read as
#: DDL (a record's tag is its kind's first letter)
_GENESIS_DDL_TAG = "g"


@dataclass(frozen=True)
class LogRecord:
    """One replayable log entry.

    ``seq`` is the log position (identical across replicas); ``line`` the
    record's JSON text, encoded once when the record is built and written
    to disk as is; ``nbytes`` its length, used for disk-charge and
    transfer accounting.
    """

    seq: int
    kind: str  # ws | ddl | load
    gid: str = ""  # ws: global transaction id
    tid: int = 0  # ws: certification tid assigned by the validator
    sender: str = ""  # ws: home replica of the transaction
    ops: tuple = ()  # ws: the WriteOps, in write order
    sql: str = ""  # ddl: the CREATE statement
    table: str = ""  # load: bulk-loaded table
    rows: tuple = ()  # load: bulk-loaded row dicts
    nbytes: int = 0
    line: str = field(default="", compare=False, repr=False)

    @classmethod
    def ws(cls, seq: int, gid: str, tid: int, sender: str, ops) -> "LogRecord":
        ops = tuple(ops)
        line = json.dumps([seq, gid, tid, sender] + _encode_ops(ops))
        return cls(seq=seq, kind=WS, gid=gid, tid=tid, sender=sender,
                   ops=ops, nbytes=len(line), line=line)

    @classmethod
    def ddl(cls, seq: int, sql: str) -> "LogRecord":
        line = json.dumps([seq, sql])
        return cls(seq=seq, kind=DDL, sql=sql, nbytes=len(line), line=line)

    @classmethod
    def load(cls, seq: int, table: str, rows) -> "LogRecord":
        rows = tuple(dict(row) for row in rows)
        line = json.dumps([seq, table, list(rows)])
        return cls(seq=seq, kind=LOAD, table=table, rows=rows,
                   nbytes=len(line), line=line)

    @property
    def keys(self) -> frozenset:
        """The (table, pk) identifiers a ws record touches."""
        return frozenset(op.key for op in self.ops)

    def install(self, db) -> None:
        """Apply this record to a storage engine — the one way a log
        record enters one: DDL runs, LOAD bulk-loads, WS installs its
        after-images."""
        if self.kind == DDL:
            db.run_ddl(self.sql)
        elif self.kind == LOAD:
            db.bulk_load(self.table, self.rows)
        else:
            db.install_writeset(self.gid, self.ops)

    def to_line(self) -> str:
        """The segment-file line: kind tag, JSON text, newline."""
        return f"{self.kind[0]}{self.line}\n"

    @classmethod
    def from_line(cls, text: str) -> "LogRecord":
        tag, data = text[:1], json.loads(text[1:])
        if tag == WS[0]:
            seq, gid, tid, sender, *ops = data
            return cls.ws(seq, gid, tid, sender, (WriteOp(*op) for op in ops))
        if tag in (DDL[0], _GENESIS_DDL_TAG):
            seq, sql = data
            return cls.ddl(seq, sql)
        if tag == LOAD[0]:
            seq, table, rows = data
            return cls.load(seq, table, rows)
        raise ValueError(f"unknown log record tag {tag!r}")


def _encode_ops(ops: tuple) -> list:
    return [[op.table, op.pk, op.op, op.values] for op in ops]


def _run_inline(fn: Callable[[], Any]) -> Generator[Any, Any, Any]:
    """``run_blocking`` for callers without a runtime: call ``fn`` now."""
    return fn()
    yield  # pragma: no cover - makes this a generator


def sync_directory(directory: Path) -> None:
    """``fsync`` a directory: the files created, renamed or unlinked in
    it so far keep that state across a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _force(fd: int, directory: Optional[Path]) -> Callable[[], None]:
    """The blocking half of a group flush: ``fsync`` the file, then its
    ``directory`` when the group created the file.  It owns ``fd`` (a
    duplicate of the log's handle), so the log may close its own handle
    — seal, rebase, crash, ``close()`` — while the force is still running."""

    def force() -> None:
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        if directory is not None:
            sync_directory(directory)

    return force


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Segment:
    """A run of consecutive durable records (one file when disk-backed).

    A disk-backed segment that is sealed and forced holds no records in
    memory (``records`` is None): its file has them all, in its first
    ``size`` bytes, and :meth:`WritesetLog.records_after` reads them
    back from there.  ``count`` and ``last_seq`` describe the segment
    either way."""

    __slots__ = ("base_seq", "records", "count", "last_seq", "sealed", "path", "size")

    def __init__(self, base_seq: int, path: Optional[Path] = None):
        self.base_seq = base_seq
        self.records: Optional[list[LogRecord]] = []
        self.count = 0
        self.last_seq = base_seq - 1
        self.sealed = False
        self.path = path
        #: bytes of the segment file that hold durable records
        self.size = 0

    def __len__(self) -> int:
        return self.count

    def add(self, record: LogRecord) -> None:
        self.records.append(record)
        self.count += 1
        self.last_seq = record.seq

    def read(self) -> list[LogRecord]:
        """The segment's records: from memory, or from its file when the
        segment dropped them."""
        if self.records is not None:
            return self.records
        with open(self.path, "rb") as fh:
            return _parse_segment(self.path, fh.read(self.size))


def _parse_segment(path: Path, data: bytes) -> list[LogRecord]:
    """The records of a segment file's durable bytes, one per line."""
    records = []
    for number, line in enumerate(data.decode().splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(LogRecord.from_line(line))
        except (ValueError, TypeError) as err:
            raise ReproError(f"{path}:{number}: corrupt log record") from err
    return records


class WritesetLog:
    """Per-replica segmented append-only log of certified writesets."""

    #: virtual seconds a flushed group is charged: one force plus its bytes
    fsync_time = 0.0002
    byte_time = 2e-9

    def __init__(self, name: str, segment_records: int = 256,
                 directory: Optional[Path] = None):
        self.name = name
        self.segment_records = max(1, segment_records)
        #: segment files live here, and every flushed group is forced
        #: with ``os.fsync``; None keeps the segments in memory
        self.directory = Path(directory) if directory is not None else None
        self.fsyncs = 0
        #: segment files opened for appending (one per segment touched
        #: per incarnation, not one per record)
        self.opens = 0
        #: durable records, oldest first; the last segment is the active one
        self.segments: list[Segment] = []
        #: appended but not yet durable (lost on crash); a flush in
        #: progress takes its group off the front only once it is durable
        self.tail: list[LogRecord] = []
        #: seq of the oldest *retained* durable record (truncation floor + 1)
        self.start_seq = 1
        self.durable_seq = 0
        self.tip_seq = 0
        self.appended = 0
        self.flushes = 0
        self.truncated_records = 0
        self.dropped_tail_records = 0
        self.durable_bytes = 0
        #: set when a full-state recovery discarded the prefix (see rebase)
        self.rebased_at: Optional[int] = None
        #: O_APPEND handle on the file the next group goes to: opened on
        #: first write, closed when that segment seals (or on rebase,
        #: crash and close), so it never points at another file
        self._fd: Optional[int] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_from_disk()

    # ------------------------------------------------------------------ append

    @property
    def next_seq(self) -> int:
        return self.tip_seq + 1

    @property
    def retained_records(self) -> int:
        """Durable records currently retained (log depth for gauges)."""
        return sum(len(segment) for segment in self.segments)

    def append(self, record: LogRecord) -> None:
        """Stage one record in the tail (durable only after a flush)."""
        if record.seq != self.next_seq:
            raise AssertionError(
                f"{self.name}: log append {record.seq} after {self.tip_seq}"
            )
        self.tail.append(record)
        self.tip_seq = record.seq
        self.appended += 1

    def append_durable(self, record: LogRecord) -> None:
        """Append write-through, bypassing the costed flush path.

        Bootstrap only: genesis schema/load records and cold-restart
        catch-up happen outside simulated time, before traffic starts.
        """
        if self.tail:
            raise AssertionError(f"{self.name}: durable append behind a tail")
        self.append(record)
        self.tail = []
        written = 0
        if self.directory is not None:
            written, force = self._write([record])
            force()
            self.fsyncs += 1
        self._commit_flush([record], record.nbytes, written)

    # ------------------------------------------------------------------- flush

    def flush(
        self,
        charge: Callable[[float], Generator],
        run_blocking: Callable[[Callable[[], Any]], Generator] = _run_inline,
    ) -> Generator[Any, Any, int]:
        """Make the tail durable, one group at a time.

        ``charge(seconds)`` bills the replica's disk resource (virtual
        time); ``run_blocking(fn)`` is the runtime's hook for a blocking
        call (``Runtime.run_blocking``), through which the group's
        ``fsync`` runs.

        A group is the tail as it stands when the flush of it starts —
        on a disk-backed log capped at the active segment's free room,
        so that a group is one file.  It costs one charge, and on disk
        one ``write`` (on the caller's thread) plus one ``fsync``.
        Records appended during the charge or the force are flushed by
        the next iteration.  The group leaves the tail for a segment,
        and ``durable_seq`` advances, only after the force returned: a
        crash meanwhile loses the records (``drop_tail`` also cuts their
        bytes off the file), and a force that raises leaves them in the
        tail and the exception propagates.
        """
        flushed_total = 0
        while self.tail:
            group_len = self._group_len()
            group = self.tail[:group_len]
            nbytes = sum(record.nbytes for record in group)
            yield from charge(self.fsync_time + nbytes * self.byte_time)
            written = 0
            if self.directory is not None:
                written, force = self._write(group)
                yield from run_blocking(force)
                self.fsyncs += 1
            del self.tail[:group_len]
            self._commit_flush(group, nbytes, written)
            flushed_total += group_len
        return flushed_total

    def _group_len(self) -> int:
        if self.directory is None:
            return len(self.tail)
        active = self._active()
        room = self.segment_records - (len(active) if active is not None else 0)
        return min(len(self.tail), room)

    def _write(self, group: list[LogRecord]) -> tuple[int, Callable[[], None]]:
        """Append ``group``'s lines to its segment file with one
        ``os.write``; returns the bytes written and the blocking force
        that makes them durable (with the file's directory entry when
        this write created the file)."""
        created = None
        if self._fd is None:
            active = self._active()
            if active is None:
                # a new segment: its file is created here
                path, created = self._segment_path(group[0].seq), self.directory
            else:
                path = active.path
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            self.opens += 1
        data = "".join([record.to_line() for record in group]).encode()
        _write_all(self._fd, data)
        return len(data), _force(os.dup(self._fd), created)

    def _commit_flush(self, group: list[LogRecord], nbytes: int, written: int) -> None:
        for record in group:
            segment = self._active_segment(record.seq)
            segment.add(record)
            if len(segment) >= self.segment_records:
                segment.sealed = True
        # a disk-backed group is one file: the segment it filled
        segment.size += written
        if segment.sealed and self.directory is not None:
            # sealed and forced: the file holds every record from now on
            self._close_fd()
            segment.records = None
        self.durable_seq = group[-1].seq
        self.durable_bytes += nbytes
        self.flushes += 1

    def _active(self) -> Optional[Segment]:
        if self.segments and not self.segments[-1].sealed:
            return self.segments[-1]
        return None

    def _active_segment(self, seq: int) -> Segment:
        active = self._active()
        if active is not None:
            return active
        path = self._segment_path(seq) if self.directory is not None else None
        segment = Segment(base_seq=seq, path=path)
        self.segments.append(segment)
        return segment

    def _segment_path(self, base_seq: int) -> Path:
        return self.directory / f"seg-{base_seq:08d}.jsonl"

    # ------------------------------------------------------------------- reads

    def records_after(self, seq: int) -> list[LogRecord]:
        """All appended records with ``record.seq > seq`` in order
        (durable segments first, then the tail).  A sealed disk-backed
        segment is read from its file, synchronously: recovery paths
        only."""
        if seq + 1 < self.start_seq:
            raise AssertionError(
                f"{self.name}: records after {seq} requested but log starts "
                f"at {self.start_seq} (truncated)"
            )
        out = []
        for segment in self.segments:
            if segment.last_seq <= seq:
                continue
            out.extend(r for r in segment.read() if r.seq > seq)
        out.extend(r for r in self.tail if r.seq > seq)
        return out

    def can_serve_from(self, seq: int) -> bool:
        """Can a delta starting after ``seq`` be served from this log?"""
        return seq + 1 >= self.start_seq

    # ------------------------------------------------------------- maintenance

    def truncate_to(self, seq: int) -> int:
        """Drop sealed segments wholly covered by the stability watermark
        ``seq``.  Only whole sealed segments go (the active segment and
        any partially-covered one stay), so ``start_seq`` is always a
        segment boundary.  A disk-backed log keeps its last segment, sealed
        or not: its files are all a reload has to place the log, and an
        emptied directory would reload as a log at seq 1, below the
        checkpoints it restores.  Returns the number of records dropped."""
        dropped = 0
        gone = []
        keep = 1 if self.directory is not None else 0
        while len(self.segments) > keep:
            segment = self.segments[0]
            if not segment.sealed or segment.last_seq > seq:
                break
            dropped += len(segment)
            gone.append(segment.path)
            self.segments.pop(0)
            self.start_seq = segment.last_seq + 1
        self._unlink(gone)
        self.truncated_records += dropped
        return dropped

    def drop_tail(self) -> int:
        """Crash semantics: records never flushed are gone — from memory,
        and (disk-backed) from the segment file a pending force had
        already written them to, so they are not reloaded later at
        sequence numbers a new incarnation appends again.  The file
        handle dies with the process too; the next write reopens it."""
        lost = len(self.tail)
        self.tail = []
        self.tip_seq = self.durable_seq
        self.dropped_tail_records += lost
        self._discard_undurable_bytes()
        return lost

    def rebase(self, seq: int) -> None:
        """Reset to an empty log that (logically) ends at ``seq``.

        Used when a replica recovers via *full* state transfer or a
        shipped checkpoint: its own history below ``seq`` is superseded
        and future appends must stay seq-aligned with the cluster.  The
        discarded prefix is unavailable locally afterwards (``rebased_at``
        records the gap).  A disk-backed log keeps its position on disk:
        an empty segment file for ``seq + 1``, which the next record goes
        to, so that a reload resumes at ``seq`` even before one arrives.
        """
        self._close_fd()
        self._unlink([segment.path for segment in self.segments])
        self.segments = []
        self.tail = []
        self.start_seq = seq + 1
        self.durable_seq = seq
        self.tip_seq = seq
        self.rebased_at = seq
        if self.directory is not None:
            segment = Segment(base_seq=seq + 1, path=self._segment_path(seq + 1))
            os.close(os.open(segment.path, os.O_WRONLY | os.O_CREAT, 0o644))
            sync_directory(self.directory)
            self.segments.append(segment)

    def close(self) -> None:
        """Release the segment file handle; the next write reopens it.

        A force still running keeps its own duplicate of the handle, so
        closing never pulls the descriptor from under an ``fsync``."""
        self._close_fd()

    def _close_fd(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def _unlink(self, paths: list) -> None:
        """Unlink segment files and sync their directory, so none of them
        reappears after a crash: a reappearing pre-``rebase`` segment
        would splice a gap into a reload."""
        unlinked = False
        for path in paths:
            if path is not None and path.exists():
                os.unlink(path)
                unlinked = True
        if unlinked:
            sync_directory(self.directory)

    def _discard_undurable_bytes(self) -> None:
        """Cut the file a group was written to back to its durable
        length: the active segment's, or nothing for a group that was
        opening a new segment file."""
        if self.directory is None:
            return
        self._close_fd()
        active = self._active()
        if active is None:
            self._unlink([self._segment_path(self.durable_seq + 1)])
        else:
            os.truncate(active.path, active.size)

    # -------------------------------------------------------------------- disk

    def _load_from_disk(self) -> None:
        """Rebuild the log from its segment files.  Every line is parsed
        (a corrupt one raises); a sealed segment then keeps only its
        count, as if its last group had just been forced."""
        paths = sorted(self.directory.glob("seg-*.jsonl"))
        for path in paths:
            data = path.read_bytes()
            size = len(data)
            if path == paths[-1] and not data.endswith(b"\n"):
                # a crash between a group's write and its fsync can cut
                # the final record short: it was never durable, drop it
                size = data.rfind(b"\n") + 1
                os.truncate(path, size)
            records = _parse_segment(path, data[:size])
            if not records and path != paths[-1]:
                continue
            # an empty last file holds the position a rebase left
            base_seq = records[0].seq if records else int(path.stem.split("-")[1])
            segment = Segment(base_seq=base_seq, path=path)
            for record in records:
                segment.add(record)
                self.durable_bytes += record.nbytes
            segment.size = size
            segment.sealed = len(segment) >= self.segment_records
            if segment.sealed:
                segment.records = None
            self.segments.append(segment)
        if self.segments:
            self.start_seq = self.segments[0].base_seq
            self.durable_seq = self.segments[-1].last_seq
            self.tip_seq = self.durable_seq
