"""Stats collector tests."""

import math

import pytest

from repro.workloads.stats import Stats, mean_confidence_interval, student_t_quantile


def test_mean_ci_basics():
    mean, half = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mean == 3.0
    assert half > 0
    # wider confidence -> wider interval
    _mean99, half99 = mean_confidence_interval([1, 2, 3, 4, 5], confidence=0.99)
    assert half99 > half


def test_mean_ci_degenerate_cases():
    mean, half = mean_confidence_interval([])
    assert math.isnan(mean)
    mean, half = mean_confidence_interval([7.0])
    assert mean == 7.0 and half == float("inf")
    mean, half = mean_confidence_interval([2.0, 2.0, 2.0])
    assert (mean, half) == (2.0, 0.0)


@pytest.mark.parametrize(
    "p, df, expected",
    [
        (0.975, 1, 12.706204736174694),
        (0.975, 4, 2.7764451051977934),
        (0.995, 4, 4.604094871349992),
        (0.975, 11, 2.200985160091639),
        (0.975, 1e5, 1.9599877075346095),
    ],
)
def test_student_t_quantile_pinned(p, df, expected):
    assert student_t_quantile(p, df) == pytest.approx(expected, rel=1e-9, abs=0)


def test_student_t_quantile_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df in [*range(1, 40), 50, 100, 300, 1e3, 1e4, 1e5, 1e6]:
        for p in (0.9, 0.95, 0.975, 0.99, 0.995, 0.9995):
            expected = float(scipy_stats.t.ppf(p, df))
            assert student_t_quantile(p, df) == pytest.approx(
                expected, rel=1e-9, abs=0
            ), (p, df)


def test_mean_ci_half_width_uses_the_t_quantile():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    _mean, half = mean_confidence_interval(samples)
    sem = math.sqrt(2.5) / math.sqrt(5)
    assert half == pytest.approx(sem * 2.7764451051977934, rel=1e-9, abs=0)


def test_categories_and_summary():
    stats = Stats()
    stats.record_commit("update", 0.010, at=1.0)
    stats.record_commit("update", 0.020, at=2.0)
    stats.record_commit("read-only", 0.005, at=3.0)
    stats.record_abort("update", at=4.0)
    assert stats.total_commits == 3
    assert stats.total_aborts == 1
    assert stats.abort_rate() == 0.25
    summary = stats.summary()
    assert summary["update"]["n"] == 2
    assert summary["update"]["mean_ms"] == pytest.approx(15.0)
    assert summary["read-only"]["mean_ms"] == pytest.approx(5.0)


def test_warmup_discards_early_samples():
    stats = Stats(warmup=10.0)
    stats.record_commit("update", 0.5, at=5.0)  # discarded
    stats.record_abort("update", at=5.0)  # discarded
    stats.record_commit("update", 0.010, at=15.0)
    assert stats.total_commits == 1
    assert stats.total_aborts == 0
    assert stats.mean_latency_ms("update") == pytest.approx(10.0)


def test_throughput_over_window():
    stats = Stats()
    for i in range(11):
        stats.record_commit("update", 0.001, at=float(i))
    assert stats.throughput() == pytest.approx(1.1)  # 11 commits over 10s


def test_throughput_degenerate():
    stats = Stats()
    assert stats.throughput() == 0.0
    stats.record_commit("u", 0.001, at=1.0)
    assert stats.throughput() == 0.0  # single point: no window
