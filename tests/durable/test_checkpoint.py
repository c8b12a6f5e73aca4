"""Unit tests for checkpoints (repro.durable.checkpoint)."""

import dataclasses
import json
import shutil
from pathlib import Path

from repro.core import ClusterConfig, SIRepCluster
from repro.core.validation import Certifier
from repro.durable import Checkpoint, CheckpointStore, DurabilityConfig, DurabilityStore
from repro.testing import query


def certifier_at(tid, writers):
    certifier = Certifier()
    for key, writer in writers.items():
        certifier.record_pass(writer, (key,), ())
    certifier.last_validated_tid = tid
    return certifier


def make_checkpoint(seq, tid=None):
    return Checkpoint.capture(
        seq=seq,
        cert_seq=seq,
        applied_beyond=(seq + 2,),
        csn=seq,
        ddl=("CREATE TABLE kv (k INT PRIMARY KEY, v INT)",),
        rows={"kv": [{"k": 1, "v": seq}]},
        certifier=certifier_at(tid if tid is not None else seq, {("kv", 1): seq}),
        outcomes={f"R0:g{seq}": "committed"},
    )


def test_capture_snapshots_inputs():
    rows = {"kv": [{"k": 1, "v": 0}]}
    cp = Checkpoint.capture(
        seq=3, cert_seq=4, applied_beyond=[6, 5], csn=3,
        ddl=["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"],
        rows=rows, certifier=certifier_at(4, {("kv", 1): 4}), outcomes={},
    )
    assert cp.rows is rows  # the rows are handed over, not copied
    assert cp.ddl == ("CREATE TABLE kv (k INT PRIMARY KEY, v INT)",)
    assert cp.applied_beyond == (5, 6)  # sorted
    assert cp.tid == 4
    assert cp.nbytes > 0


def test_json_round_trip_preserves_tuple_keys():
    cp = make_checkpoint(5)
    again = Checkpoint.from_json(cp.to_json())
    assert again == cp
    assert ("kv", 1) in Certifier.from_wire(again.certifier_state).last_writers


def test_store_keeps_latest_and_rotates():
    store = CheckpointStore("R0", keep=2)
    for seq in (2, 5, 9):
        store.save(make_checkpoint(seq))
    assert store.latest().seq == 9
    assert [cp.seq for cp in store.checkpoints] == [5, 9]
    assert store.saved == 3


def test_store_skips_non_progress():
    store = CheckpointStore("R0", keep=2)
    store.save(make_checkpoint(5))
    store.save(make_checkpoint(5))
    store.save(make_checkpoint(3))
    assert store.saved == 1
    assert [cp.seq for cp in store.checkpoints] == [5]


def test_disk_backed_store_round_trips(tmp_path):
    store = CheckpointStore("R0", keep=2, directory=tmp_path / "ckpt")
    for seq in (2, 5, 9):
        store.save(make_checkpoint(seq))
    files = sorted(p.name for p in (tmp_path / "ckpt").glob("ckpt-*.json"))
    assert files == ["ckpt-00000005.json", "ckpt-00000009.json"]  # rotated
    reloaded = CheckpointStore("R0", keep=2, directory=tmp_path / "ckpt")
    assert reloaded.latest() == store.latest()


def test_torn_newest_checkpoint_falls_back_to_the_older_one(tmp_path):
    directory = tmp_path / "ckpt"
    store = CheckpointStore("R0", keep=2, directory=directory)
    for seq in (5, 9):
        store.save(make_checkpoint(seq))
    assert sorted(p.name for p in directory.iterdir()) == [
        "ckpt-00000005.json", "ckpt-00000009.json",
    ]  # no temporary file is left behind
    newest = directory / "ckpt-00000009.json"
    text = newest.read_text()
    newest.write_text(text[: len(text) // 2])  # a write torn by a crash

    reloaded = CheckpointStore("R0", keep=2, directory=directory)
    assert reloaded.latest() == store.checkpoints[0]
    assert reloaded.unreadable == [newest]
    reloaded.save(make_checkpoint(12))
    assert CheckpointStore("R0", directory=directory).latest().seq == 12


#: two salvage replicas' durable directories, written by an earlier
#: version of this code: seq 1-2 genesis, seq 3-8 four updates, a
#: delete of k=3 and an insert, a checkpoint at seq 8 (tombstone
#: ("kv", 3)), then seq 9-10 above it (an update of k=1, a delete of k=2)
OLDER_WAL = Path(__file__).parent / "fixtures" / "wal-v1"


def test_a_checkpoint_written_by_an_earlier_version_restores(tmp_path):
    wal = tmp_path / "wal"
    shutil.copytree(OLDER_WAL, wal)
    store = CheckpointStore("R0", directory=wal / "R0" / "ckpt")
    checkpoint = store.latest()
    assert store.unreadable == [] and checkpoint.seq == 8
    certifier = Certifier.from_wire(checkpoint.certifier_state)
    assert certifier.salvage is False  # a restore takes its replica's mode
    assert certifier.last_validated_tid == certifier.validated == 6
    assert (certifier.rejected, certifier.salvaged, certifier.gc_runs) == (0, 0, 0)
    assert certifier.tombstones == {("kv", 3)}
    assert certifier.last_writers == {
        ("kv", 1): 1, ("kv", 2): 2, ("kv", 3): 5, ("kv", 4): 4, ("kv", 5): 6,
    }
    # capturing the restored certifier gives the same checkpoint back,
    # but for the size, whose formula is the full image's now
    again = Checkpoint.capture(
        seq=checkpoint.seq, cert_seq=checkpoint.cert_seq,
        applied_beyond=checkpoint.applied_beyond, csn=checkpoint.csn,
        ddl=checkpoint.ddl, rows=checkpoint.rows, certifier=certifier,
        outcomes=checkpoint.outcomes,
    )
    assert again == dataclasses.replace(checkpoint, nbytes=again.nbytes)

    cluster = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=2, seed=6, salvage=True),
        DurabilityStore(DurabilityConfig(log_dir=wal, segment_records=4)),
    )
    try:
        for replica in cluster.replicas:
            assert replica.recovery.stats == {
                "mode": "cold", "records": 2, "checkpoint": True,
            }
            rows = query(cluster.sim, replica.db, "SELECT k, v FROM kv ORDER BY k")
            assert rows == [{"k": 1, "v": 11}, {"k": 4, "v": 40}, {"k": 5, "v": 50}]
            assert replica.validation.certifier.salvage is True
            assert replica.validation.certifier.last_validated_tid == 8
            assert replica.validation.certifier.validated == 8
            assert replica.validation.certifier.tombstones == {("kv", 2), ("kv", 3)}
    finally:
        cluster.stop()


def test_a_cold_restart_from_an_earlier_version_serves_a_reader_join(tmp_path):
    wal = tmp_path / "wal"
    shutil.copytree(OLDER_WAL, wal)
    cluster = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=2, seed=6, salvage=True),
        DurabilityStore(DurabilityConfig(log_dir=wal, segment_records=4)),
    )
    try:
        reader = cluster.add_reader()
        cluster.sim.run()
        assert reader.db.export_committed() == cluster.replicas[0].db.export_committed()
        assert reader.db.ddl_log == cluster.replicas[0].db.ddl_log
        assert reader.watermark == cluster.replicas[0].validation.certifier.last_validated_tid
    finally:
        cluster.stop()


def test_an_unreadable_checkpoint_is_reported_at_cold_restart(tmp_path):
    from repro.client import Driver

    config = DurabilityConfig(log_dir=tmp_path / "wal")
    cluster = SIRepCluster(ClusterConfig(n_replicas=2, seed=7, durability=config))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 4)])
    driver = Driver(cluster.network, cluster.discovery)

    def write(k, v):
        def proc():
            conn = yield from driver.connect(cluster.new_client_host())
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (v, k))
            yield from conn.commit()

        cluster.sim.run_process(proc())
        cluster.sim.run(until=cluster.sim.now + 0.5)

    # two checkpoints per replica, with log records above each
    for round_ in (1, 2):
        write(1, 10 * round_)
        for replica in cluster.replicas:
            replica.log.take_checkpoint()
    write(2, 99)
    expected = query(cluster.sim, cluster.replicas[0].db, "SELECT k, v FROM kv ORDER BY k")
    cluster.stop()
    newest = sorted((tmp_path / "wal" / "R0" / "ckpt").glob("ckpt-*.json"))[-1]
    text = newest.read_text()
    newest.write_text(text[: len(text) // 2])

    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=2, seed=8, obs=True, flight=True),
        DurabilityStore(config),
    )
    try:
        events = restarted.obs.events.of_kind("checkpoint_unreadable")
        assert [(e["replica"], e["path"]) for e in events] == [("R0", str(newest))]
        snapshots = [
            snap for snap in restarted.flight.snapshots
            if snap["reason"] == "checkpoint-unreadable:R0"
        ]
        assert len(snapshots) == 1
        assert snapshots[0]["context"]["files"] == [str(newest)]
        assert restarted.replicas[0].status().checkpoints_unreadable == (str(newest),)
        assert restarted.replicas[1].status().checkpoints_unreadable == ()
        # R0 rebuilt from its older checkpoint plus the log above it
        assert restarted.replicas[0].recovery.stats["checkpoint"] is True
        for replica in restarted.replicas:
            rows = query(restarted.sim, replica.db, "SELECT k, v FROM kv ORDER BY k")
            assert rows == expected
    finally:
        restarted.stop()


def test_a_checkpoint_and_a_full_image_of_a_quiescent_replica_are_one_image():
    """A checkpoint and the full image a donor ships are captured by one
    ``Checkpoint.capture``: once every certified writeset has applied,
    the two are equal, and each round-trips through its JSON file form
    and through the wire codec unchanged."""
    from repro.client import Driver
    from repro.runtime import codec

    config = ClusterConfig(n_replicas=2, seed=4, salvage=True, durability=DurabilityConfig())
    cluster = SIRepCluster(config)
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 4)])
    driver = Driver(cluster.network, cluster.discovery)

    def writes():
        conn = yield from driver.connect(cluster.new_client_host())
        for sql, params in [
            ("UPDATE kv SET v = ? WHERE k = ?", (7, 1)),
            ("DELETE FROM kv WHERE k = ?", (2,)),
            ("INSERT INTO kv (k, v) VALUES (?, ?)", (9, 9)),
        ]:
            yield from conn.execute(sql, params)
            yield from conn.commit()

    cluster.sim.run_process(writes())
    cluster.sim.run(until=cluster.sim.now + 1.0)
    replica = cluster.replicas[0]
    assert replica.log.applied.beyond == set() and not replica.manager.queue
    checkpoint = replica.log.take_checkpoint()
    transfer = replica.recovery.transfer(None)
    assert transfer.image == checkpoint
    assert checkpoint.seq == checkpoint.cert_seq == replica.wslog.tip_seq
    assert checkpoint.tid == replica.validation.certifier.last_validated_tid == 3
    assert transfer.nbytes() == checkpoint.nbytes
    for image in (checkpoint, transfer.image):
        assert Checkpoint.from_json(json.loads(json.dumps(image.to_json()))) == image
        assert codec.unframe(codec.frame(image)[4:]) == image
