"""The paper's 95/5 stopping rule (run_until_confident)."""

import pytest

from repro.bench import run_sirep, run_until_confident
from repro.bench.harness import LoadPoint
from repro.core import ClusterConfig
from repro.workloads import micro


def test_run_until_confident_converges_quickly_on_stable_points():
    calls = []

    def fake_point(seed):
        calls.append(seed)
        return LoadPoint(
            system="fake", load_tps=10, throughput=10.0,
            mean_rt_ms={"update": 20.0 + 0.01 * seed}, abort_rate=0.0,
        )

    point, achieved = run_until_confident(fake_point, min_seeds=3, max_seeds=10)
    assert len(calls) == 3  # tight samples: stops at the minimum
    assert achieved < 0.05
    assert point.extras["seeds"] == 3
    assert point.mean_rt_ms["update"] == pytest.approx(20.01, abs=0.01)


def test_run_until_confident_caps_at_max_seeds():
    noisy = iter([10.0, 100.0, 10.0, 100.0, 10.0, 100.0])

    def fake_point(seed):
        return LoadPoint(
            system="fake", load_tps=10, throughput=10.0,
            mean_rt_ms={"update": next(noisy)}, abort_rate=0.0,
        )

    point, achieved = run_until_confident(fake_point, min_seeds=3, max_seeds=6)
    assert point.extras["seeds"] == 6
    assert achieved > 0.05  # never converged


def test_run_until_confident_on_real_simulation():
    workload = micro.make_workload()

    def point(seed):
        return run_sirep(
            workload, 20, ClusterConfig(n_replicas=3, seed=seed),
            duration=4.0, warmup=1.0,
        )

    averaged, achieved = run_until_confident(
        point, rel_half_width=0.25, min_seeds=3, max_seeds=5
    )
    assert averaged.throughput > 10
    assert averaged.extras["seeds"] >= 3
