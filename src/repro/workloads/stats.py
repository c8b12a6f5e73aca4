"""Measurement collection: response times, throughput, aborts, 95% CIs.

The paper runs every configuration "until a 95/5 confidence interval was
achieved"; we run for a fixed virtual horizon and report the 95% CI so
the harness can assert the 5%-of-mean criterion where it matters.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import quantile


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method (converges fast for ``x < (a + 1) / (a + b + 2)``)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    return h


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  For large ``a`` the two huge terms lgamma(a + b)
    and lgamma(a) would cancel, so their difference comes from
    Stirling's series instead."""
    if a < 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def stirling_tail(z: float) -> float:
        return 1 / (12 * z) - 1 / (360 * z**3) + 1 / (1260 * z**5)

    log_ratio = (  # lgamma(a + b) - lgamma(a)
        (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
        + stirling_tail(a + b) - stirling_tail(a)
    )
    return math.lgamma(b) - log_ratio


def _regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def student_t_quantile(p: float, df: float) -> float:
    """The ``p`` quantile (``0.5 < p < 1``) of Student's t with ``df``
    degrees of freedom.

    For t > 0, P(T > t) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2);
    I_x increases with x, so bisection finds the x where
    I_x = 2 (1 - p).
    """
    two_tails = 2.0 * (1.0 - p)
    low, high = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (low + high)
        if _regularized_beta(0.5 * df, 0.5, mid) < two_tails:
            low = mid
        else:
            high = mid
    x = 0.5 * (low + high)
    return math.sqrt(df * (1.0 - x) / x)


def mean_confidence_interval(samples, confidence: float = 0.95):
    """(mean, half_width) of the t-based confidence interval."""
    data = [float(sample) for sample in samples]
    if not data:
        return (float("nan"), float("nan"))
    mean = statistics.fmean(data)
    if len(data) == 1:
        return (mean, float("inf"))
    sem = statistics.stdev(data) / math.sqrt(len(data))
    if sem == 0.0:
        return (mean, 0.0)
    half = sem * student_t_quantile((1 + confidence) / 2, len(data) - 1)
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
