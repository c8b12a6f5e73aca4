"""Unit tests for the metric primitives (repro.obs.metrics)."""

import json
import math

from repro.obs import (
    Counter,
    Gauge,
    MetricsRegistry,
    quantile,
    sanitize,
)


def test_quantile_empty_is_nan():
    assert math.isnan(quantile([], 0.5))


def test_quantile_single_and_interpolation():
    assert quantile([7.0], 0.99) == 7.0
    ordered = [0.0, 10.0]
    assert quantile(ordered, 0.5) == 5.0
    assert quantile(ordered, 0.0) == 0.0
    assert quantile(ordered, 1.0) == 10.0
    # numpy-style linear interpolation over 5 points
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0


def test_sanitize_replaces_non_finite_recursively():
    blob = {
        "ok": 1.5,
        "bad": float("nan"),
        "inf": float("inf"),
        "nested": [float("-inf"), {"x": float("nan")}, (1.0, float("nan"))],
        "text": "NaN",  # strings pass through untouched
        "n": 3,
    }
    clean = sanitize(blob)
    assert clean["ok"] == 1.5
    assert clean["bad"] is None
    assert clean["inf"] is None
    assert clean["nested"][0] is None
    assert clean["nested"][1]["x"] is None
    assert clean["nested"][2] == [1.0, None]
    assert clean["text"] == "NaN"
    assert clean["n"] == 3
    # the whole point: the result is strict-JSON serialisable
    json.dumps(clean, allow_nan=False)


def test_counter_increments():
    counter = Counter("c")
    assert counter.value == 0
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_gauge_reads_callback_and_maps_errors_to_nan():
    state = {"depth": 3}
    gauge = Gauge("g", lambda: state["depth"])
    assert gauge.read() == 3.0
    state["depth"] = 8
    assert gauge.read() == 8.0  # never stale: evaluated on demand

    def dead():
        raise RuntimeError("component crashed")

    assert math.isnan(Gauge("dead", dead).read())


def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")


def test_registry_gauge_reregistration_replaces_callback():
    # replica recovery re-registers the same gauge names against the new
    # incarnation; the registry must hand the name over
    registry = MetricsRegistry()
    registry.gauge("R0.depth", lambda: 1.0)
    registry.gauge("R0.depth", lambda: 42.0)
    assert registry.read_gauges() == {"R0.depth": 42.0}


def test_registry_snapshot_is_json_safe():
    registry = MetricsRegistry()
    registry.counter("commits").inc(2)
    registry.gauge("dead", lambda: float("nan"))
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"commits": 2}
    assert snapshot["gauges"]["dead"] is None
    json.dumps(snapshot, allow_nan=False)


def test_registry_unregister_prefix_is_dot_exact():
    # crash teardown drops "R1."'s gauges; "R10." is a different replica
    registry = MetricsRegistry()
    registry.gauge("R1.tocommit_depth", lambda: 1.0)
    registry.gauge("R1.holes", lambda: 2.0)
    registry.gauge("R10.holes", lambda: 3.0)
    assert registry.unregister_prefix("R1.") == 2
    assert registry.read_gauges() == {"R10.holes": 3.0}
    assert registry.unregister_prefix("R1.") == 0


def test_unregister_keeps_counters():
    # counters hold accumulated run data, not live callbacks:
    # a crashed replica's totals must survive its gauge teardown
    registry = MetricsRegistry()
    registry.counter("R1.commits").inc(7)
    registry.gauge("R1.depth", lambda: 0.0)
    registry.unregister_prefix("R1.")
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"R1.commits": 7}
    assert snapshot["gauges"] == {}
