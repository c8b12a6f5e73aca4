"""Unit tests for the bounded protocol-milestone event log."""

import io
import json

from repro.obs import EventLog
from repro.sim import Simulator


def make():
    sim = Simulator(seed=0)
    return sim, EventLog(sim)


def test_emit_stamps_sim_time_and_fields():
    sim, log = make()
    row = log.emit("validation", replica="R0", gid="g1", outcome="commit")
    assert row == {
        "t": 0.0,
        "event": "validation",
        "replica": "R0",
        "gid": "g1",
        "outcome": "commit",
    }
    assert len(log) == 1
    assert log.counts == {"validation": 1}


def test_ring_eviction_keeps_counts_exact(monkeypatch):
    monkeypatch.setattr(EventLog, "capacity", 5)
    sim, log = make()
    for i in range(8):
        log.emit("view_change", view=i)
    assert len(log) == 5  # ring bounded
    assert log.emitted == 8
    assert log.counts == {"view_change": 8}  # totals survive eviction
    # what's retained is the most recent tail
    assert [row["view"] for row in log.tail()] == [3, 4, 5, 6, 7]


def test_of_kind_and_tail():
    sim, log = make()
    log.emit("validation", gid="a")
    log.emit("inquiry", gid="b")
    log.emit("validation", gid="c")
    assert [row["gid"] for row in log.of_kind("validation")] == ["a", "c"]
    assert [row["gid"] for row in log.tail(2)] == ["b", "c"]


def test_to_jsonl_is_strict_json():
    sim, log = make()
    log.emit("validation", gid="g1", outcome="abort")
    log.emit("recovery_state_sent", pending=float("nan"))  # sanitised
    lines = log.to_jsonl().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["event"] == "validation"
    assert parsed[1]["pending"] is None


def test_dump_to_path_and_file_object(tmp_path):
    sim, log = make()
    log.emit("view_change", members=["R0", "R1"])
    path = tmp_path / "events.jsonl"
    assert log.dump(str(path)) == 1
    assert json.loads(path.read_text().strip())["event"] == "view_change"
    buffer = io.StringIO()
    assert log.dump(buffer) == 1
    assert buffer.getvalue().endswith("\n")


def test_dump_empty_log(tmp_path):
    sim, log = make()
    path = tmp_path / "events.jsonl"
    assert log.dump(str(path)) == 0
    assert path.read_text() == ""
