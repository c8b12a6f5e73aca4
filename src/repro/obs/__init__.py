"""Unified observability: metrics registry, gauge sampler, event log.

One :class:`Observability` instance per deployment (shared across the
groups of a sharded one) bundles the three surfaces every later
perf/robustness change reads its numbers from:

* :class:`MetricsRegistry` — counters and callback gauges, next to the
  quantile code shared with the commit-latency trace;
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
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, quantile, sanitize
from repro.obs.monitor import MonitorViolation, OneCopyMonitor
from repro.obs.sampler import Sampler
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "MonitorViolation",
    "Observability",
    "OneCopyMonitor",
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

    def __init__(self, sim, sampler_interval: float = 0.25):
        self.sim = sim
        self.registry = MetricsRegistry()
        self.events = EventLog(sim)
        self.sampler = Sampler(sim, self.registry, interval=sampler_interval)
        self.sampler.start()

    def snapshot(self) -> dict:
        """JSON-safe dump: instruments + event totals + gauge series."""
        out = self.registry.snapshot()
        out["events"] = dict(self.events.counts)
        out["series"] = self.sampler.series()
        return out
