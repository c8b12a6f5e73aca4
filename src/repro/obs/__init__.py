"""Unified observability: metrics registry, gauge sampler, event log.

One :class:`Observability` instance per deployment (shared across the
groups of a sharded one) bundles the three surfaces every later
perf/robustness change reads its numbers from:

* :class:`MetricsRegistry` — counters, callback gauges, histograms with
  the p50/p95/p99 quantile code shared with the commit-latency trace;
* :class:`Sampler` — a sim-time daemon probing per-replica gauges
  (to-commit depth, hole count/age, sessions, certifier window, GCS
  buffer occupancy, group-commit group size) into a bounded time-series;
* :class:`EventLog` — bounded JSONL log of protocol milestones
  (validation pass/abort, view change, recovery transfer, inquiry).

Enabling any of it never perturbs the simulation: instruments are read
without yielding, drawing randomness, or notifying gates.
"""

from __future__ import annotations

import importlib

from repro.obs.events import EventLog
from repro.obs.metrics import (
    PERCENTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile,
    sanitize,
)
from repro.obs.monitor import MonitorViolation, OneCopyMonitor
from repro.obs.sampler import Sampler
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MonitorViolation",
    "Observability",
    "OneCopyMonitor",
    "PERCENTILES",
    "PHASES",
    "ProfileReport",
    "Sampler",
    "Span",
    "TraceContext",
    "Tracer",
    "TxnProfile",
    "compare_reports",
    "profile_run",
    "profile_spans",
    "quantile",
    "sanitize",
]

#: names of the two modules that are also commands (``python -m
#: repro.obs.profile`` / ``repro.obs.flight``), imported on first use:
#: a package that imported them eagerly would have them loaded before
#: runpy executes them as ``__main__``, which runpy warns about
_LAZY = {
    "FlightRecorder": "repro.obs.flight",
    **dict.fromkeys(
        ("PHASES", "ProfileReport", "TxnProfile", "compare_reports",
         "profile_run", "profile_spans"),
        "repro.obs.profile",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


class Observability:
    """Registry + sampler + event log wired to one simulator."""

    def __init__(
        self,
        sim,
        sampler_interval: float = 0.25,
        sampler_max_samples: int = 4096,
        event_capacity: int = 10_000,
        autostart: bool = True,
        histogram_max_samples: int = 8192,
    ):
        self.sim = sim
        # every histogram created through the deployment surface is
        # retention-bounded: a long run's registry plateaus instead of
        # holding every latency sample ever observed (count/sum/recent
        # quantiles survive; pass None to keep exact full-run quantiles)
        self.registry = MetricsRegistry(
            histogram_max_samples=histogram_max_samples
        )
        self.events = EventLog(sim, capacity=event_capacity)
        self.sampler = Sampler(
            sim,
            self.registry,
            interval=sampler_interval,
            max_samples=sampler_max_samples,
        )
        if autostart:
            self.sampler.start()

    def snapshot(self) -> dict:
        """JSON-safe dump: instruments + event totals + gauge series."""
        out = self.registry.snapshot()
        out["events"] = dict(self.events.counts)
        out["series"] = self.sampler.series()
        return out
