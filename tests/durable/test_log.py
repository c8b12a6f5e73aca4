"""Unit tests for the segmented writeset log (repro.durable.log)."""

import json
import os
import shutil
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.cluster import build_surface
from repro.core.protocol import Transfer
from repro.durable import DurabilityConfig, DurabilityStore, LogRecord, WritesetLog
from repro.durable import checkpoint as durable_checkpoint
from repro.durable import log as durable_log
from repro.errors import ReproError, SimulationError
from repro.runtime import codec
from repro.storage.writeset import WriteOp
from repro.testing import query


def ws(seq, key=1):
    return LogRecord.ws(
        seq, f"R0:g{seq}", seq, "R0",
        (WriteOp("kv", key, "update", {"k": key, "v": seq}),),
    )


def charge_free(seconds):
    """Zero-cost charge generator for tests without a simulator."""
    return
    yield  # pragma: no cover


def drain(gen):
    """Run a charge-generator-driven flush to completion, return value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def test_append_assigns_contiguous_sequences():
    log = WritesetLog("R0")
    log.append(ws(1))
    log.append(ws(2))
    assert log.tip_seq == 2
    assert log.durable_seq == 0  # nothing flushed yet
    with pytest.raises(AssertionError):
        log.append(ws(4))  # gap


def test_flush_moves_tail_to_segments_with_one_charge_per_group():
    log = WritesetLog("R0")
    charges = []

    def charge(seconds):
        charges.append(seconds)
        return
        yield

    for seq in range(1, 6):
        log.append(ws(seq))
    flushed = drain(log.flush(charge))
    assert flushed == 5
    assert log.durable_seq == 5
    assert log.tail == []
    assert len(charges) == 1  # group commit: one fsync for the batch
    assert charges[0] > log.fsync_time  # fsync + per-byte cost


def test_records_after_returns_suffix_across_segments_and_tail():
    log = WritesetLog("R0", segment_records=2)
    for seq in range(1, 6):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    log.append(ws(6))  # still in the tail
    suffix = log.records_after(3)
    assert [r.seq for r in suffix] == [4, 5, 6]
    assert [r.seq for r in log.records_after(0)] == [1, 2, 3, 4, 5, 6]


def test_truncate_drops_only_whole_sealed_segments():
    log = WritesetLog("R0", segment_records=2)
    for seq in range(1, 8):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    # segments: [1,2] [3,4] [5,6] sealed, [7] active
    dropped = log.truncate_to(5)  # 5 splits the [5,6] segment: keep it
    assert dropped == 4
    assert log.start_seq == 5
    assert log.can_serve_from(4)
    assert not log.can_serve_from(3)
    with pytest.raises(AssertionError):
        log.records_after(2)  # truncated away
    # active (unsealed) segment never goes, even if fully covered
    assert log.truncate_to(100) == 2  # only [5,6]


def test_drop_tail_loses_unflushed_records_only():
    log = WritesetLog("R0")
    log.append(ws(1))
    drain(log.flush(charge_free))
    log.append(ws(2))
    log.append(ws(3))
    lost = log.drop_tail()
    assert lost == 2
    assert log.tip_seq == log.durable_seq == 1
    # the log accepts seq 2 again (a new incarnation re-certifies it)
    log.append(ws(2))
    assert log.tip_seq == 2


def test_rebase_discards_prefix_and_realigns():
    log = WritesetLog("R0")
    for seq in range(1, 4):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    log.rebase(10)
    assert log.tip_seq == log.durable_seq == 10
    assert log.rebased_at == 10
    assert not log.can_serve_from(5)
    log.append(ws(11))
    assert log.tip_seq == 11


def test_append_durable_writes_through_without_a_flush():
    log = WritesetLog("R0")
    log.append_durable(LogRecord.ddl(1, "CREATE TABLE t (id INT PRIMARY KEY)"))
    log.append_durable(LogRecord.load(2, "t", [{"id": 1}]))
    assert log.durable_seq == 2
    assert log.tail == []
    log.append(ws(3))
    with pytest.raises(AssertionError):
        log.append_durable(ws(4))  # write-through behind a tail is a bug


def test_disk_backed_log_round_trips(tmp_path):
    log = WritesetLog("R0", segment_records=2, directory=tmp_path / "R0")
    log.append_durable(LogRecord.ddl(1, "CREATE TABLE kv (k INT PRIMARY KEY)"))
    for seq in range(2, 6):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    reloaded = WritesetLog("R0", segment_records=2, directory=tmp_path / "R0")
    assert reloaded.durable_seq == 5
    assert [r.seq for r in reloaded.records_after(0)] == [1, 2, 3, 4, 5]
    assert reloaded.records_after(0)[0].sql.startswith("CREATE TABLE kv")
    ops = reloaded.records_after(1)[0].ops
    assert ops[0].key == ("kv", 1)


def test_disk_backed_truncation_unlinks_segment_files(tmp_path):
    log = WritesetLog("R0", segment_records=2, directory=tmp_path / "R0")
    for seq in range(1, 6):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    files_before = sorted(p.name for p in (tmp_path / "R0").glob("seg-*.jsonl"))
    assert len(files_before) == 3
    log.truncate_to(4)
    files_after = sorted(p.name for p in (tmp_path / "R0").glob("seg-*.jsonl"))
    assert len(files_after) == 1
    reloaded = WritesetLog("R0", segment_records=2, directory=tmp_path / "R0")
    assert reloaded.start_seq == 5


def test_record_json_round_trip():
    record = ws(7, key=3)
    again = LogRecord.from_line(record.to_line())
    assert again == record
    ddl = LogRecord.ddl(1, "CREATE TABLE t (id INT PRIMARY KEY)")
    assert LogRecord.from_line(ddl.to_line()) == ddl
    # earlier versions tagged genesis DDL "g": it still reads as DDL
    assert LogRecord.from_line("g" + ddl.to_line()[1:]) == ddl
    load = LogRecord.load(2, "t", [{"id": 1, "v": "x"}])
    assert LogRecord.from_line(load.to_line()) == load


def test_a_written_log_tags_every_ddl_d(tmp_path):
    """Genesis and replicated DDL alike are written as ``d`` lines."""
    config = DurabilityConfig(log_dir=tmp_path / "wal")
    cluster = SIRepCluster(ClusterConfig(n_replicas=2, seed=3, durability=config))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)

    def proc():
        conn = yield from driver.connect(cluster.new_client_host())
        yield from conn.execute("CREATE TABLE t2 (k INT PRIMARY KEY)")
        yield from conn.execute("UPDATE kv SET v = 5 WHERE k = 1")
        yield from conn.commit()

    cluster.sim.run_process(proc())
    cluster.sim.run()
    cluster.stop()
    for replica in ("R0", "R1"):
        lines = [
            line for path in sorted((tmp_path / "wal" / replica / "log").glob("seg-*"))
            for line in path.read_text().splitlines()
        ]
        assert [line[0] for line in lines] == ["d", "l", "d", "w"]


def test_each_record_is_encoded_once_and_nbytes_is_that_line():
    """``nbytes`` is the length of the carried line, and it is the same
    figure as before the line was carried (disk charges and transfer
    accounting must not move)."""
    record = ws(7, key=3)
    assert record.nbytes == len(record.line) == len(json.dumps(
        [7, "R0:g7", 7, "R0", ["kv", 3, "update", {"k": 3, "v": 7}]]
    ))
    assert record.to_line() == f"w{record.line}\n"
    ddl = LogRecord.ddl(1, "CREATE TABLE t (id INT PRIMARY KEY)")
    assert ddl.nbytes == len(json.dumps([1, "CREATE TABLE t (id INT PRIMARY KEY)"]))
    load = LogRecord.load(2, "t", [{"id": 1}])
    assert load.nbytes == len(json.dumps([2, "t", [{"id": 1}]]))


# --------------------------------------------- sealed segments on disk only


def in_memory_records(log):
    """Durable records the log holds in memory (the tail not included)."""
    return sum(len(s.records) for s in log.segments if s.records is not None)


def field_by_field(record):
    """Every field of a record, ``line`` included, as its repr: a value
    that changes type on the way through JSON (int for float, list for
    tuple) shows up even where ``==`` would let it pass."""
    return [(f.name, repr(getattr(record, f.name))) for f in fields(LogRecord)]


MIXED_RECORDS = [
    LogRecord.ddl(1, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT, s TEXT)"),
    LogRecord.load(2, "t", [
        {"id": 1, "v": 0.5, "s": "x"},
        {"id": 2, "v": None, "s": "caf\u00e9 \"quoted\"\n"},
    ]),
    LogRecord.ws(3, "R0:g1", 1, "R0", (
        WriteOp("t", 1, "update", {"id": 1, "v": 2.0, "s": None}),
        WriteOp("t", 2, "delete", None),
        WriteOp("t", 3, "insert", {"id": 3, "v": -1e-07, "s": ""}),
    )),
    LogRecord.ddl(4, "CREATE TABLE u (k INT PRIMARY KEY)"),
    LogRecord.load(5, "u", [{"k": 10 ** 12}]),
    LogRecord.ws(6, "R1:g1", 2, "R1", (
        WriteOp("u", 10 ** 12, "update", {"k": 10 ** 12}),
    )),
]


def test_a_sealed_forced_segment_is_read_back_from_its_file(tmp_path):
    """A disk-backed log drops a sealed segment's records once its last
    group is forced; ``records_after`` returns them from the file, every
    field (``line`` and ``nbytes`` too) as appended, and a delta built
    from them is the same transfer, byte for byte, as an in-memory
    donor's."""
    disk = WritesetLog("R0", segment_records=4, directory=tmp_path / "R0")
    memory = WritesetLog("R0", segment_records=4)
    for log in (disk, memory):
        for record in MIXED_RECORDS:
            log.append(record)
        drain(log.flush(charge_free))
    sealed, active = disk.segments
    assert sealed.sealed and sealed.records is None
    assert (len(sealed), sealed.last_seq, len(active)) == (4, 4, 2)
    assert in_memory_records(disk) == 2
    assert in_memory_records(memory) == disk.retained_records == 6
    back = disk.records_after(0)
    assert back == MIXED_RECORDS
    assert [field_by_field(r) for r in back] == [
        field_by_field(r) for r in MIXED_RECORDS
    ]
    assert [r.seq for r in disk.records_after(2)] == [3, 4, 5, 6]
    deltas = [
        Transfer(donor="R0", from_seq=0, records=tuple(log.records_after(0)),
                 image=None, pending=(), outcomes={"R0:g1": "committed"})
        for log in (disk, memory)
    ]
    assert deltas[0].nbytes() == deltas[1].nbytes()
    assert codec.frame(deltas[0]) == codec.frame(deltas[1])
    disk.close()


def test_a_cold_restart_keeps_only_the_active_segment_in_memory(tmp_path):
    directory = tmp_path / "R0"
    log = WritesetLog("R0", segment_records=3, directory=directory)
    log.append_durable(LogRecord.ddl(1, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)"))
    log.append_durable(LogRecord.load(2, "kv", [{"k": k, "v": 0} for k in range(5)]))
    for seq in range(3, 12):
        log.append(ws(seq, key=seq % 5))
    drain(log.flush(charge_free))
    log.close()
    assert [len(s) for s in log.segments] == [3, 3, 3, 2]
    assert in_memory_records(log) == 2
    reloaded = WritesetLog("R0", segment_records=3, directory=directory)
    assert [len(s) for s in reloaded.segments] == [3, 3, 3, 2]
    assert in_memory_records(reloaded) <= reloaded.segment_records
    assert reloaded.retained_records == log.retained_records == 11
    assert (reloaded.durable_bytes, reloaded.durable_seq) == (
        log.durable_bytes, log.durable_seq,
    )
    assert reloaded.records_after(0) == log.records_after(0) == [
        LogRecord.from_line(line)
        for path in sorted(directory.glob("seg-*.jsonl"))
        for line in path.read_text().splitlines()
    ]
    # truncation drops whole segments whether or not they are in memory
    assert reloaded.truncate_to(7) == 6
    assert [r.seq for r in reloaded.records_after(6)] == [7, 8, 9, 10, 11]


# -------------------------------------------------------------- group commit


class HeldForce:
    """A ``run_blocking`` stub that parks the flush on its force until
    the test resumes it (``next(flush)``), then runs the force."""

    def __init__(self):
        self.forces = []

    def __call__(self, fn):
        self.forces.append(fn)
        yield "force"
        return fn()


def test_records_staged_before_the_force_share_one_fsync(tmp_path):
    log = WritesetLog("R0", directory=tmp_path / "R0")
    log.append(ws(1))
    log.append(ws(2))
    held = HeldForce()
    flush = log.flush(charge_free, held)
    assert next(flush) == "force"
    assert drain(flush) == 2
    assert log.fsyncs == log.flushes == 1
    assert len(held.forces) == 1
    assert log.durable_seq == 2
    assert log.opens == 1


def test_record_appended_during_the_force_lands_in_the_next_group(tmp_path):
    log = WritesetLog("R0", directory=tmp_path / "R0")
    log.append(ws(1))
    log.append(ws(2))
    flush = log.flush(charge_free, HeldForce())
    assert next(flush) == "force"
    log.append(ws(3))
    assert next(flush) == "force"  # the first group is durable, 3 forcing
    assert log.durable_seq == 2
    assert [r.seq for r in log.tail] == [3]
    assert drain(flush) == 3
    assert log.fsyncs == log.flushes == 2
    assert log.durable_seq == 3
    assert log.opens == 1  # one handle for the active segment, not per record
    log.close()


def test_durable_seq_waits_for_the_force_to_return(tmp_path):
    log = WritesetLog("R0", directory=tmp_path / "R0")
    log.append(ws(1))
    flush = log.flush(charge_free, HeldForce())
    next(flush)
    # written, not yet forced: nothing is durable and nothing is counted
    assert (tmp_path / "R0" / "seg-00000001.jsonl").stat().st_size > 0
    assert log.durable_seq == 0
    assert [r.seq for r in log.tail] == [1]
    assert log.fsyncs == log.flushes == 0
    drain(flush)
    assert log.durable_seq == 1
    assert log.tail == []
    log.close()


def test_a_failing_force_keeps_the_group_in_the_tail_and_raises(tmp_path):
    log = WritesetLog("R0", directory=tmp_path / "R0")
    log.append(ws(1))
    log.append(ws(2))

    def failing(fn):
        fn()
        raise OSError(5, "fsync failed")
        yield  # pragma: no cover

    with pytest.raises(OSError):
        drain(log.flush(charge_free, failing))
    assert [r.seq for r in log.tail] == [1, 2]
    assert log.durable_seq == 0
    assert log.fsyncs == log.flushes == 0
    log.close()


def test_failing_force_aborts_the_run_instead_of_going_on_undurable(tmp_path):
    """The replica's flusher is not a daemon: an fsync error surfaces
    from ``run()`` rather than leaving the replica silently undurable."""
    cluster = SIRepCluster(ClusterConfig(
        n_replicas=2, seed=3,
        durability=DurabilityConfig(log_dir=tmp_path / "wal"),
    ))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])

    def failing(fn):
        fn()
        raise OSError(5, "fsync failed")
        yield  # pragma: no cover

    cluster.sim.run_blocking = failing
    driver = Driver(cluster.network, cluster.discovery)

    def writer():
        conn = yield from driver.connect(cluster.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
        yield from conn.commit()

    cluster.sim.spawn(writer(), name="writer")
    with pytest.raises(SimulationError, match="log-flush") as info:
        cluster.sim.run()
    assert isinstance(info.value.__cause__, OSError)
    cluster.stop()


@pytest.mark.parametrize("store", [False, True], ids=["config", "external-store"])
def test_a_disk_backed_wall_log_forces_every_group(tmp_path, store):
    """A log with a directory pays one real fsync per durable group,
    however the durability store reached the cluster: through
    ``ClusterConfig.durability`` or handed in, as a cold restart does."""
    durability = DurabilityConfig(log_dir=tmp_path / "wal")
    config = ClusterConfig(n_replicas=2, seed=3, runtime="wall")
    if store:
        cluster = SIRepCluster(config, surface=build_surface(config, DurabilityStore(durability)))
    else:
        cluster = SIRepCluster(replace(config, durability=durability))
    try:
        cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
        cluster.bulk_load("kv", [{"k": 1, "v": 0}])
        driver = Driver(cluster.network, cluster.discovery)

        def writer():
            conn = yield from driver.connect(cluster.new_client_host())
            yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
            yield from conn.commit()

        cluster.sim.run_process(writer())
        cluster.sim.run()
        logs = [replica.wslog for replica in cluster.replicas]
        assert [(log.durable_seq, log.fsyncs) for log in logs] == [(3, 3), (3, 3)]
    finally:
        cluster.stop()


def test_segment_files_are_opened_once_per_segment(tmp_path):
    log = WritesetLog("R0", segment_records=2, directory=tmp_path / "R0")
    for seq in range(1, 6):
        log.append(ws(seq))
        drain(log.flush(charge_free))  # one record per group
    assert log.flushes == log.fsyncs == 5
    assert log.opens == 3  # [1,2] [3,4] [5]
    log.close()
    log.append(ws(6))
    drain(log.flush(charge_free))
    assert log.opens == 4  # closing drops the handle; the next write reopens
    log.close()
    assert [r.seq for r in WritesetLog("R0", directory=tmp_path / "R0").records_after(0)] == [
        1, 2, 3, 4, 5, 6,
    ]


def test_group_is_capped_at_the_active_segment(tmp_path):
    """A disk-backed group never spans two files: one write, one fsync."""
    log = WritesetLog("R0", segment_records=2, directory=tmp_path / "R0")
    log.append(ws(1))
    drain(log.flush(charge_free))
    for seq in range(2, 6):
        log.append(ws(seq))
    assert drain(log.flush(charge_free)) == 4
    # groups [1] | [2] (the room left) | [3, 4] | [5]
    assert log.flushes == log.fsyncs == 4
    assert [len(s) for s in log.segments] == [2, 2, 1]
    log.close()


# ---------------------------------------------------------- crash and reload


def test_kill_between_write_and_force_then_reload(tmp_path):
    """A crash while a group's force is pending: the bytes were written
    but the group never became durable.  ``drop_tail`` cuts them off the
    file, so a reload does not resurrect them under sequence numbers the
    next incarnation appends again."""
    directory = tmp_path / "R0"
    log = WritesetLog("R0", directory=directory)
    log.append(ws(1))
    log.append(ws(2))
    drain(log.flush(charge_free))
    log.append(ws(3))
    log.append(ws(4))
    held = HeldForce()
    flush = log.flush(charge_free, held)
    assert next(flush) == "force"
    flush.close()  # the flusher process is killed mid-force
    assert log.drop_tail() == 2
    held.forces[0]()  # the I/O thread finishes the orphaned force late
    assert WritesetLog("R0", directory=directory).durable_seq == 2
    # the next incarnation certifies a different writeset at seq 3
    log.append(ws(3, key=9))
    drain(log.flush(charge_free))
    log.close()
    reloaded = WritesetLog("R0", directory=directory)
    assert [r.seq for r in reloaded.records_after(0)] == [1, 2, 3]
    assert reloaded.records_after(2)[0].ops[0].pk == 9


def test_kill_while_forcing_a_new_segment_removes_its_file(tmp_path):
    directory = tmp_path / "R0"
    log = WritesetLog("R0", segment_records=2, directory=directory)
    log.append(ws(1))
    log.append(ws(2))
    drain(log.flush(charge_free))  # [1,2] sealed
    log.append(ws(3))
    held = HeldForce()
    flush = log.flush(charge_free, held)
    next(flush)
    assert (directory / "seg-00000003.jsonl").exists()
    flush.close()
    log.drop_tail()
    held.forces[0]()
    assert not (directory / "seg-00000003.jsonl").exists()
    assert WritesetLog("R0", segment_records=2, directory=directory).durable_seq == 2


def test_cold_restart_drops_a_torn_final_record(tmp_path):
    directory = tmp_path / "R0"
    log = WritesetLog("R0", directory=directory)
    log.append_durable(LogRecord.ddl(1, "CREATE TABLE kv (k INT PRIMARY KEY)"))
    for seq in range(2, 5):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    log.close()
    path = directory / "seg-00000001.jsonl"
    intact = path.stat().st_size
    with open(path, "ab") as fh:  # crash between write and fsync
        fh.write(ws(5).to_line().encode()[:20])
    reloaded = WritesetLog("R0", directory=directory)
    assert reloaded.durable_seq == 4
    assert path.stat().st_size == intact  # truncated to the last record
    reloaded.append(ws(5))
    drain(reloaded.flush(charge_free))
    reloaded.close()
    again = WritesetLog("R0", directory=directory)
    assert [r.seq for r in again.records_after(0)] == [1, 2, 3, 4, 5]


def test_a_bad_line_before_the_tail_still_raises(tmp_path):
    directory = tmp_path / "R0"
    log = WritesetLog("R0", directory=directory)
    for seq in range(1, 3):
        log.append(ws(seq))
    drain(log.flush(charge_free))
    log.close()
    path = directory / "seg-00000001.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0][:10] + "\n" + lines[1])
    with pytest.raises(ReproError, match="corrupt log record"):
        WritesetLog("R0", directory=directory)


def test_cluster_cold_restart_survives_a_torn_log_tail(tmp_path):
    config = DurabilityConfig(log_dir=tmp_path / "wal")
    cluster_config = ClusterConfig(n_replicas=3, seed=5)
    cluster = SIRepCluster(
        cluster_config, surface=build_surface(cluster_config, DurabilityStore(config))
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 4)])
    driver = Driver(cluster.network, cluster.discovery)

    def writer():
        conn = yield from driver.connect(cluster.new_client_host())
        for value in range(1, 4):
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = 1", (value,))
            yield from conn.commit()

    cluster.sim.run_process(writer())
    cluster.sim.run()
    cluster.stop()
    # R1 died halfway through appending its next record
    segment = sorted((tmp_path / "wal" / "R1" / "log").glob("seg-*.jsonl"))[-1]
    with open(segment, "ab") as fh:
        fh.write(b'w[99, "R0:')

    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=3, seed=6),
        DurabilityStore(config),
    )
    rows = {
        replica.name: query(restarted.sim, replica.node.db, "SELECT v FROM kv WHERE k = 1")
        for replica in restarted.replicas
    }
    assert all(result == [{"v": 3}] for result in rows.values())
    assert restarted.one_copy_report().ok
    restarted.stop()


# ------------------------------------------------------- directory fsyncs


class FsRecorder:
    """``os`` as :mod:`repro.durable` sees it: records each file it
    creates, each ``fsync`` (by the path its descriptor was opened on)
    and each ``unlink``, and whether the call ran inside
    :meth:`run_blocking` — the runtime's I/O thread on the wall clock."""

    def __init__(self):
        self.calls = []
        self.blocking = False
        self._paths = {}

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, *args):
        created = not os.path.exists(path)
        fd = os.open(path, flags, *args)
        self._paths[fd] = Path(path)
        if created:
            self.calls.append(("create", Path(path).name, self.blocking))
        return fd

    def dup(self, fd):
        copy = os.dup(fd)
        self._paths[copy] = self._paths.get(fd)
        return copy

    def fsync(self, fd):
        os.fsync(fd)
        path = self._paths.get(fd)
        self.calls.append(("fsync", path.name if path else None, self.blocking))

    def unlink(self, path):
        os.unlink(path)
        self.calls.append(("unlink", Path(path).name, self.blocking))

    def run_blocking(self, fn):
        self.blocking = True
        try:
            return fn()
        finally:
            self.blocking = False
        yield  # pragma: no cover - makes this a generator

    def take(self):
        calls, self.calls = self.calls, []
        return calls


@pytest.fixture
def fs(monkeypatch):
    recorder = FsRecorder()
    for module in (durable_log, durable_checkpoint):
        monkeypatch.setattr(module, "os", recorder)
    return recorder


def test_segment_creates_and_unlinks_reach_the_directory(tmp_path, fs):
    """A new segment file's directory entry is forced with the group
    that created it, in the blocking force, before ``durable_seq``
    moves; unlinked segments are synced away before the next file is
    written, so neither a lost file nor a stale one turns up on reload."""
    directory = tmp_path / "R0"
    log = WritesetLog("R0", segment_records=2, directory=directory)
    for seq in (1, 2, 3):
        log.append(ws(seq))
    assert drain(log.flush(charge_free, fs.run_blocking)) == 3
    assert fs.take() == [
        ("create", "seg-00000001.jsonl", False),
        ("fsync", "seg-00000001.jsonl", True),
        ("fsync", "R0", True),
        ("create", "seg-00000003.jsonl", False),
        ("fsync", "seg-00000003.jsonl", True),
        ("fsync", "R0", True),
    ]
    # a held force: a group that created its file is written, but it is
    # not durable until the force, directory sync included, returns
    log.append(ws(4))
    log.append(ws(5))
    flush = log.flush(charge_free, HeldForce())
    next(flush)  # [4] written to seg-3, forcing
    next(flush)  # [4] durable; [5] written to a new seg-5, forcing
    assert log.durable_seq == 4
    assert fs.take() == [
        ("fsync", "seg-00000003.jsonl", False),
        ("create", "seg-00000005.jsonl", False),
    ]
    assert drain(flush) == 2
    assert log.durable_seq == 5
    assert fs.take() == [
        ("fsync", "seg-00000005.jsonl", False),
        ("fsync", "R0", False),
    ]
    # the write-through bootstrap append syncs a file it creates too
    log.append_durable(ws(6))
    log.append_durable(ws(7))
    assert fs.take() == [
        ("fsync", "seg-00000005.jsonl", False),
        ("create", "seg-00000007.jsonl", False),
        ("fsync", "seg-00000007.jsonl", False),
        ("fsync", "R0", False),
    ]
    # truncation and rebase sync the directory after their unlinks
    assert log.truncate_to(4) == 4
    assert fs.take() == [
        ("unlink", "seg-00000001.jsonl", False),
        ("unlink", "seg-00000003.jsonl", False),
        ("fsync", "R0", False),
    ]
    # a rebase keeps its position on disk: an empty file for the segment
    # the next record goes to, its directory entry synced too
    log.rebase(10)
    assert fs.take() == [
        ("unlink", "seg-00000005.jsonl", False),
        ("unlink", "seg-00000007.jsonl", False),
        ("fsync", "R0", False),
        ("create", "seg-00000011.jsonl", False),
        ("fsync", "R0", False),
    ]
    # a crash while that segment's first group is forcing cuts the file
    # back to empty: it stays, and with it the position
    log.append(ws(11))
    flush = log.flush(charge_free, HeldForce())
    next(flush)
    flush.close()
    log.drop_tail()
    assert fs.take() == []
    assert (directory / "seg-00000011.jsonl").read_bytes() == b""
    assert WritesetLog("R0", segment_records=2, directory=directory).tip_seq == 10
    log.append(ws(11))
    log.append(ws(12))
    drain(log.flush(charge_free, fs.run_blocking))
    log.close()
    # the bytes on disk are the records' lines, as before
    assert sorted(p.name for p in directory.iterdir()) == ["seg-00000011.jsonl"]
    assert (directory / "seg-00000011.jsonl").read_text() == (
        ws(11).to_line() + ws(12).to_line()
    )
    reloaded = WritesetLog("R0", segment_records=2, directory=directory)
    assert [r.seq for r in reloaded.records_after(10)] == [11, 12]


GENESIS_DDL = [
    "CREATE TABLE kv (k INT PRIMARY KEY, v INT)",
    "CREATE TABLE other (id INT PRIMARY KEY, kv INT REFERENCES kv)",
    "CREATE INDEX i_other_kv ON other (kv)",
]


def test_genesis_ddl_is_one_write_and_one_force_per_replica(tmp_path, fs):
    """``load_schema`` hands a replica's DDL records to its log together:
    one ``write`` and one ``fsync`` of the segment (with the directory's,
    as the write creates the file) per replica, however many statements."""
    cluster = SIRepCluster(ClusterConfig(
        n_replicas=2, durability=DurabilityConfig(log_dir=tmp_path)
    ))
    try:
        cluster.load_schema(GENESIS_DDL)
        assert fs.take() == [
            ("create", "seg-00000001.jsonl", False),
            ("fsync", "seg-00000001.jsonl", False),
            ("fsync", "log", False),
        ] * 2
        for replica in cluster.replicas:
            assert replica.wslog.fsyncs == 1
            assert replica.log.applied.top == 3
    finally:
        cluster.stop()


@pytest.mark.parametrize("segment_records", [2, 256])
def test_genesis_ddl_written_together_is_the_same_log(tmp_path, segment_records):
    """The segment files hold the bytes one write-through append per
    record wrote (a group never crosses a segment file), and a cold
    restart replays them."""
    config = ClusterConfig(n_replicas=2, durability=DurabilityConfig(
        log_dir=tmp_path / "wal", segment_records=segment_records,
    ))
    cluster = SIRepCluster(config)
    cluster.load_schema(GENESIS_DDL)
    cluster.bulk_load("kv", [{"k": k, "v": k} for k in range(3)])
    cluster.stop()
    one_by_one = WritesetLog("R0", segment_records, directory=tmp_path / "one")
    for seq, sql in enumerate(GENESIS_DDL, 1):
        one_by_one.append_durable(LogRecord.ddl(seq, sql))
    one_by_one.append_durable(LogRecord.load(4, "kv", [{"k": k, "v": k} for k in range(3)]))
    one_by_one.close()
    expected = {p.name: p.read_bytes() for p in (tmp_path / "one").iterdir()}
    assert len(expected) == (2 if segment_records == 2 else 1)
    for replica in ("R0", "R1"):
        log_dir = tmp_path / "wal" / replica / "log"
        assert {p.name: p.read_bytes() for p in log_dir.iterdir()} == expected
    restarted = SIRepCluster.cold_restart(config, DurabilityStore(config.durability))
    try:
        for replica in restarted.replicas:
            assert replica.db.ddl_log == GENESIS_DDL
            assert query(restarted.sim, replica.db, "SELECT k FROM kv ORDER BY k") == [
                {"k": 0}, {"k": 1}, {"k": 2},
            ]
            assert replica.recovery.stats["mode"] == "cold"
    finally:
        restarted.stop()


def test_cold_restart_catch_up_is_one_write_and_one_force(tmp_path, fs):
    """A replica whose log ends early is levelled from the longest log
    with the records it lacks written and forced together, not one
    ``fsync`` per record."""
    config = ClusterConfig(n_replicas=2, durability=DurabilityConfig(log_dir=tmp_path))
    cluster = SIRepCluster(config)
    cluster.load_schema(GENESIS_DDL[:1])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(5)])
    driver = Driver(cluster.network, cluster.discovery)

    def updates():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        for i in range(12):
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (i, i % 5))
            yield from conn.commit()
        conn.close()

    cluster.crash(1)
    cluster.sim.run_process(updates())
    cluster.sim.run(until=cluster.sim.now + 1)
    cluster.stop()
    fs.take()
    restarted = SIRepCluster.cold_restart(config, DurabilityStore(config.durability))
    try:
        assert fs.take() == [("fsync", "seg-00000001.jsonl", False)]
        assert [r.wslog.tip_seq for r in restarted.replicas] == [14, 14]
        assert restarted.replicas[1].db.export_committed() == (
            restarted.replicas[0].db.export_committed()
        )
    finally:
        restarted.stop()


def test_an_earlier_version_log_still_loads_and_extends(tmp_path, fs):
    wal = tmp_path / "wal"
    shutil.copytree(Path(__file__).parent / "fixtures" / "wal-v1", wal)
    directory = wal / "R0" / "log"
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    log = WritesetLog("R0", segment_records=4, directory=directory)
    assert [r.seq for r in log.records_after(0)] == list(range(1, 11))
    log.append(ws(11))
    drain(log.flush(charge_free, fs.run_blocking))
    log.close()
    # the partial last segment gets the new line appended; no new file
    assert fs.take() == [("fsync", "seg-00000009.jsonl", True)]
    after = {p.name: p.read_bytes() for p in directory.iterdir()}
    assert after == {**before, "seg-00000009.jsonl": (
        before["seg-00000009.jsonl"] + ws(11).to_line().encode()
    )}
