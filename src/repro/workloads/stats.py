"""Measurement collection: response times, throughput, aborts, 95% CIs.

The paper runs every configuration "until a 95/5 confidence interval was
achieved"; we run for a fixed virtual horizon and report the 95% CI so
the harness can assert the 5%-of-mean criterion where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import quantile


def mean_confidence_interval(samples, confidence: float = 0.95):
    """(mean, half_width) of the t-based confidence interval."""
    # imported here, not at module level: no replica, client or sequencer
    # computes an interval, so their processes never load numpy or scipy
    import numpy as np
    from scipy import stats as scipy_stats

    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return (float("nan"), float("nan"))
    mean = float(data.mean())
    if data.size == 1:
        return (mean, float("inf"))
    sem = float(data.std(ddof=1)) / math.sqrt(data.size)
    if sem == 0.0:
        return (mean, 0.0)
    half = sem * float(scipy_stats.t.ppf((1 + confidence) / 2, data.size - 1))
    return (mean, half)


@dataclass
class CategoryStats:
    """Samples of one transaction category (e.g. update vs read-only)."""

    latencies: list[float] = field(default_factory=list)
    commits: int = 0
    aborts: int = 0

    def mean_ms(self) -> float:
        if not self.latencies:
            return float("nan")
        return 1000.0 * sum(self.latencies) / len(self.latencies)

    def percentile_ms(self, q: float) -> float:
        """Latency percentile in ms, via the shared repro.obs quantile
        helper (same linear interpolation the metrics histograms use, so
        workload reports and dashboards agree on tail definitions)."""
        return 1000.0 * quantile(sorted(self.latencies), q / 100.0)

    def ci95_ms(self) -> tuple[float, float]:
        mean, half = mean_confidence_interval(self.latencies)
        return (1000.0 * mean, 1000.0 * half)


class Stats:
    """Run-wide collector with a warm-up cut-off.

    Samples recorded before ``warmup`` (virtual seconds) are discarded so
    queue ramp-up does not bias the means.
    """

    def __init__(self, warmup: float = 0.0):
        self.warmup = warmup
        self.categories: dict[str, CategoryStats] = {}
        self.first_commit_at: Optional[float] = None
        self.last_commit_at: Optional[float] = None

    def _category(self, name: str) -> CategoryStats:
        category = self.categories.get(name)
        if category is None:
            category = CategoryStats()
            self.categories[name] = category
        return category

    def record_commit(self, category: str, latency: float, at: float) -> None:
        if at < self.warmup:
            return
        stats = self._category(category)
        stats.latencies.append(latency)
        stats.commits += 1
        if self.first_commit_at is None:
            self.first_commit_at = at
        self.last_commit_at = at

    def record_abort(self, category: str, at: float) -> None:
        if at < self.warmup:
            return
        self._category(category).aborts += 1

    # -- aggregates -----------------------------------------------------------

    @property
    def total_commits(self) -> int:
        return sum(c.commits for c in self.categories.values())

    @property
    def total_aborts(self) -> int:
        return sum(c.aborts for c in self.categories.values())

    def abort_rate(self) -> float:
        total = self.total_commits + self.total_aborts
        return self.total_aborts / total if total else 0.0

    def throughput(self) -> float:
        """Committed transactions per second over the measured window."""
        if (
            self.first_commit_at is None
            or self.last_commit_at is None
            or self.last_commit_at <= self.first_commit_at
        ):
            return 0.0
        return self.total_commits / (self.last_commit_at - self.first_commit_at)

    def mean_latency_ms(self, category: str) -> float:
        return self._category(category).mean_ms()

    def summary(self) -> dict:
        out = {}
        for name, category in sorted(self.categories.items()):
            mean, half = category.ci95_ms()
            out[name] = {
                "n": category.commits,
                "aborts": category.aborts,
                "mean_ms": mean,
                "ci95_ms": half,
                "p95_ms": category.percentile_ms(95),
            }
        return out
