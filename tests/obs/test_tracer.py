"""Unit tests for the causal span tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs import Span, TraceContext, Tracer


class FakeSim:
    """The tracer only ever reads ``sim.now``."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def sim():
    return FakeSim()


def test_span_lifecycle_and_fields(sim):
    tracer = Tracer(sim)
    sim.now = 1.0
    span = tracer.start("txn", "g1", replica="R0", gid="g1")
    assert span.open and span.status == "open"
    assert span.span_id == 1 and span.parent_id is None
    assert tracer.open_spans() == [span]
    sim.now = 2.5
    child = tracer.start("gcs", "g1", parent=span.span_id, replica="R0")
    tracer.finish(child)
    tracer.finish(span, status="ok", outcome="committed")
    assert not span.open
    assert span.end == 2.5
    assert span.attrs["outcome"] == "committed"
    assert tracer.open_spans() == []
    assert [s.name for s in tracer.spans()] == ["gcs", "txn"]
    assert tracer.started == 2 and tracer.finished_count == 2


def test_finish_is_idempotent(sim):
    tracer = Tracer(sim)
    span = tracer.start("txn", "g1")
    sim.now = 1.0
    tracer.finish(span, status="ok")
    sim.now = 9.0
    tracer.finish(span, status="aborted")  # no-op: already closed
    assert span.end == 1.0 and span.status == "ok"
    assert tracer.finished_count == 1


def test_record_retroactive_span(sim):
    tracer = Tracer(sim)
    sim.now = 3.0
    span = tracer.record("hole_start_wait", "g1", start=1.5, replica="R0")
    assert span.start == 1.5 and span.end == 3.0
    explicit = tracer.record("gcs_sequencing", "g1", start=1.0, end=2.0)
    assert (explicit.start, explicit.end) == (1.0, 2.0)


def test_start_backdating(sim):
    sim.now = 5.0
    tracer = Tracer(sim)
    span = tracer.start("txn", "g1", start=4.0)
    assert span.start == 4.0


def test_close_open_filters_by_replica(sim):
    tracer = Tracer(sim)
    a = tracer.start("txn", "g1", replica="R0")
    b = tracer.start("txn", "g2", replica="R1")
    sim.now = 2.0
    closed = tracer.close_open(replica="R0", status="crashed")
    assert closed == [a]
    assert a.status == "crashed" and b.open
    closed_rest = tracer.close_open(status="shutdown")
    assert closed_rest == [b] and b.status == "shutdown"


def test_trace_collects_finished_and_open_sorted(sim):
    tracer = Tracer(sim)
    sim.now = 2.0
    late = tracer.start("late", "g1")
    sim.now = 1.0
    early = tracer.record("early", "g1", start=0.5)
    tracer.start("other-trace", "g2")
    spans = tracer.trace("g1")
    assert spans == [early, late]


def test_bounded_retention_drops_oldest_finished(sim, monkeypatch):
    monkeypatch.setattr(Tracer, "max_spans", 3)
    tracer = Tracer(sim)
    for i in range(5):
        tracer.record(f"s{i}", "g", start=float(i))
    names = [s.name for s in tracer.spans()]
    assert names == ["s2", "s3", "s4"]
    assert tracer.finished_count == 5  # counters stay exact


def test_nesting_violations_checks_parent_only(sim):
    tracer = Tracer(sim)
    parent = tracer.record("parent", "g1", start=1.0, end=2.0)
    tracer.record("inside", "g1", start=1.2, end=1.8, parent=parent.span_id)
    # a link crossing the parent's interval is NOT a violation
    tracer.record("linked", "g1", start=1.5, end=9.0, link=parent.span_id)
    assert tracer.nesting_violations() == []
    escapee = tracer.record(
        "escapes", "g1", start=1.5, end=3.0, parent=parent.span_id
    )
    bad = tracer.nesting_violations()
    assert bad == [(parent, escapee)]


def test_to_jsonl_is_strict_json_lines(sim):
    tracer = Tracer(sim)
    tracer.record("a", "g1", start=0.0, replica="R0", n=float("nan"))
    tracer.record("b", "g1", start=1.0, replica="R1")
    lines = tracer.to_jsonl().splitlines()
    assert len(lines) == 2
    rows = [json.loads(line) for line in lines]
    assert rows[0]["name"] == "a"
    assert rows[0]["attrs"]["n"] is None  # sanitized, not literal NaN


def test_chrome_export_shape(sim, tmp_path):
    tracer = Tracer(sim)
    root = tracer.record("txn", "g1", start=0.001, end=0.003, replica="R0")
    tracer.record(
        "gcs", "g1", start=0.001, end=0.002, replica="R0", parent=root.span_id
    )
    tracer.record("deliver", "g1", start=0.002, end=0.004, replica="R1",
                  link=root.span_id)
    tracer.record("txn", "g2", start=0.005, end=0.006, replica="R0")
    chrome = tracer.to_chrome()
    json.dumps(chrome, allow_nan=False)
    events = chrome["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 4
    # one process per replica, one thread per (replica, trace)
    assert {m["args"]["name"] for m in metas if m["name"] == "process_name"} == {
        "R0", "R1",
    }
    assert {m["args"]["name"] for m in metas if m["name"] == "thread_name"} == {
        "g1", "g2",
    }
    first = next(e for e in xs if e["name"] == "txn")
    assert first["ts"] == pytest.approx(1000.0)  # seconds -> microseconds
    assert first["dur"] == pytest.approx(2000.0)
    assert first["args"]["trace_id"] == "g1"
    # same replica, different traces -> same pid, different tids
    txn_g2 = next(e for e in xs if e["args"]["trace_id"] == "g2")
    assert txn_g2["pid"] == first["pid"] and txn_g2["tid"] != first["tid"]

    target = tmp_path / "trace.json"
    count = tracer.dump_chrome(str(target))
    assert count == 4
    assert json.loads(target.read_text())["traceEvents"]


def test_trace_context_is_frozen():
    ctx = TraceContext("g1", 7, root_id=3)
    assert (ctx.trace_id, ctx.span_id, ctx.root_id) == ("g1", 7, 3)
    with pytest.raises(AttributeError):
        ctx.span_id = 9


def test_span_to_dict_roundtrips(sim):
    tracer = Tracer(sim)
    span = tracer.record("s", "g", start=0.0, replica="R0", k=1)
    data = span.to_dict()
    assert isinstance(span, Span)
    assert data["name"] == "s" and data["attrs"] == {"k": 1}
    json.dumps(data, allow_nan=False)
