"""Harness plumbing tests (fast: tiny loads, short horizons)."""

import pytest

from repro.bench.costs import (
    APPLY_FRACTION,
    LargeDbCost,
    MicroCost,
    TpcwCost,
    apply_cost_micro,
    full_execution_cost_micro,
)
from repro.bench.harness import LoadPoint, run_comparator, run_sirep
from repro.bench.tables import render_series
from repro.core import ClusterConfig
from repro.core.baselines import CentralizedSystem, TableLockSystem
from repro.workloads import micro


def test_cost_models_return_nonnegative_pairs():
    for model in (MicroCost(), TpcwCost(), LargeDbCost()):
        for hook in (
            model.statement("update", 10, 5, 2),
            model.writeset_apply(10),
            model.commit(10),
        ):
            cpu, disk = hook
            assert cpu >= 0 and disk >= 0


def test_apply_fraction_is_about_20_percent():
    fraction = apply_cost_micro() / full_execution_cost_micro()
    assert fraction == pytest.approx(APPLY_FRACTION, abs=0.05)


def test_run_sirep_returns_load_point():
    point = run_sirep(
        micro.make_workload(), 20,
        ClusterConfig(n_replicas=3, cost_model=lambda _i: MicroCost()),
        duration=3.0, warmup=0.5,
    )
    assert isinstance(point, LoadPoint)
    assert point.system == "SRCA-Rep"
    assert point.throughput > 5
    assert point.rt("update") > 0
    assert "hole_wait_fraction" in point.extras


def test_run_sirep_opt_label():
    point = run_sirep(
        micro.make_workload(), 10,
        ClusterConfig(n_replicas=2, hole_sync=False),
        duration=2.0, warmup=0.5,
    )
    assert point.system == "SRCA-Opt"


def test_run_centralized_and_tablelock():
    workload = micro.make_workload()
    config = ClusterConfig(n_replicas=3, cost_model=lambda _i: MicroCost())
    central = run_comparator(
        workload, 15, CentralizedSystem(config), duration=3.0, warmup=0.5
    )
    assert central.system == "centralized"
    assert central.throughput > 5
    tl = run_comparator(
        workload, 15, TableLockSystem(workload.procedures(), config),
        duration=3.0, warmup=0.5,
    )
    assert tl.system == "protocol of [20]"
    assert tl.throughput > 5


def test_render_series_formats_table():
    points = [
        LoadPoint("A", 10, 9.5, {"update": 12.0}, 0.0, {"x": 1}),
        LoadPoint("A", 20, 19.0, {"update": 15.0}, 0.0, {"x": 2}),
        LoadPoint("B", 10, 9.0, {"update": 20.0}, 0.01, {}),
    ]
    text = render_series("Test", points, categories=("update",), extras=("x",))
    assert "Test" in text
    assert "A/update(ms)" in text
    assert "B/xput" in text
    lines = text.splitlines()
    assert len(lines) == 3 + 2  # title, rule, header + two load rows
    # missing point renders as dashes, not a crash
    assert "-" in lines[-1]
