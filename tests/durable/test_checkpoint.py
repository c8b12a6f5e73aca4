"""Unit tests for checkpoints (repro.durable.checkpoint)."""

from repro.durable import Checkpoint, CheckpointStore


class FakeCertifier:
    def __init__(self, tid, writers):
        self.last_validated_tid = tid
        self._last_writer = writers


def make_checkpoint(seq, tid=None):
    return Checkpoint.capture(
        seq=seq,
        cert_seq=seq,
        applied_beyond=(seq + 2,),
        csn=seq,
        ddl=("CREATE TABLE kv (k INT PRIMARY KEY, v INT)",),
        rows={"kv": [{"k": 1, "v": seq}]},
        certifier=FakeCertifier(tid if tid is not None else seq, {("kv", 1): seq}),
        outcomes={f"R0:g{seq}": "committed"},
    )


def test_capture_snapshots_inputs():
    rows = {"kv": [{"k": 1, "v": 0}]}
    cp = Checkpoint.capture(
        seq=3, cert_seq=4, applied_beyond=[6, 5], csn=3,
        ddl=["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"],
        rows=rows, certifier=FakeCertifier(4, {("kv", 1): 4}), outcomes={},
    )
    rows["kv"][0]["v"] = 99  # mutating the source must not leak in
    assert cp.rows["kv"][0]["v"] == 0
    assert cp.applied_beyond == (5, 6)  # sorted
    assert cp.cert_tid == 4
    assert cp.nbytes > 0


def test_json_round_trip_preserves_tuple_keys():
    cp = make_checkpoint(5)
    again = Checkpoint.from_json(cp.to_json())
    assert again == cp
    assert ("kv", 1) in again.cert_last_writer


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
