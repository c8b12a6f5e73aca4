"""Periodic gauge probing: per-replica time-series in simulated time.

Queue depths, hole counts, and buffer occupancies are *instantaneous*
quantities — counters can't recover them after the fact.  The
:class:`Sampler` is a daemon process that probes every registered gauge
on a fixed cadence and keeps a bounded time-series, which is what the
bench harness exports to ``results/`` (queue-depth and hole-age curves
under load are the §6 "where does the latency come from" evidence).

Sampling only *reads* component state: no gates are notified, no RNG
streams are drawn from, and no process is delayed, so enabling the
sampler cannot change what the simulated system does — only record it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.obs.metrics import MetricsRegistry, sanitize


class Sampler:
    """Probes a registry's gauges every ``interval`` simulated seconds."""

    #: rows kept; the oldest fall off first on long runs
    max_samples = 4096

    def __init__(self, sim, registry: MetricsRegistry, interval: float = 0.25):
        if interval <= 0:
            raise ValueError(f"sampler interval must be positive: {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.rows: deque[dict[str, float]] = deque(maxlen=self.max_samples)
        self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.alive

    def start(self) -> None:
        """Spawn the probing daemon (idempotent)."""
        if self.running:
            return
        self._process = self.sim.spawn(
            self._loop(), name="obs.sampler", daemon=True
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _loop(self) -> Generator[Any, Any, None]:
        while True:
            # weak tick: probing must never keep the simulation alive
            # (a run with the sampler terminates exactly when the same
            # run without it would)
            yield self.sim.sleep(self.interval, weak=True)
            self.sample_now()

    def sample_now(self) -> dict[str, float]:
        """One immediate probe (also what each timer tick runs)."""
        row = {"t": self.sim.now}
        row.update(self.registry.read_gauges())
        self.rows.append(row)
        return row

    # -- export ----------------------------------------------------------------

    def series(self) -> list[dict]:
        """All retained rows, JSON-safe (NaN from dead gauges -> null)."""
        return [sanitize(dict(row)) for row in self.rows]

    def series_of(self, name: str) -> list[tuple[float, float]]:
        """``(t, value)`` pairs of one gauge, rows lacking it skipped."""
        return [
            (row["t"], row[name])
            for row in self.rows
            if name in row and row[name] == row[name]  # drop NaN probes
        ]
