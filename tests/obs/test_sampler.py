"""Unit tests for the sim-time gauge sampler (repro.obs.sampler)."""

import pytest

from repro.obs import MetricsRegistry, Sampler
from repro.sim import Simulator


def make(interval=0.25):
    sim = Simulator(seed=0)
    registry = MetricsRegistry()
    sampler = Sampler(sim, registry, interval=interval)
    return sim, registry, sampler


def test_interval_must_be_positive():
    sim = Simulator(seed=0)
    with pytest.raises(ValueError):
        Sampler(sim, MetricsRegistry(), interval=0.0)
    with pytest.raises(ValueError):
        Sampler(sim, MetricsRegistry(), interval=-1.0)


def test_sampler_probes_on_cadence():
    sim, registry, sampler = make(interval=0.25)
    depth = {"value": 0}
    registry.gauge("R0.depth", lambda: depth["value"])
    sampler.start()

    def load():
        yield sim.sleep(1.0)
        depth["value"] = 7
        yield sim.sleep(1.0)

    sim.spawn(load(), name="load")
    sim.run(until=2.0)
    # ticks at 0.25, 0.50, ... 2.0 -> 8 rows, stamped in sim time
    assert len(sampler.rows) == 8
    times = [row["t"] for row in sampler.rows]
    assert times == pytest.approx([0.25 * (i + 1) for i in range(8)])
    # the gauge change at t=1.0 shows up from that probe on (the loader
    # resumes before the same-instant tick, so the t=1.0 row reads 7)
    values = [row["R0.depth"] for row in sampler.rows]
    assert values[:3] == [0.0, 0.0, 0.0]
    assert values[3:] == [7.0] * 5


def test_sampler_retention_is_bounded(monkeypatch):
    monkeypatch.setattr(Sampler, "max_samples", 5)
    sim, registry, sampler = make(interval=0.1)
    registry.gauge("g", lambda: 1.0)
    sampler.start()

    def run():
        yield sim.sleep(5.0)

    sim.spawn(run(), name="run")
    sim.run()
    assert len(sampler.rows) == 5
    # the *oldest* rows fell off: what's retained is the tail
    assert sampler.rows[0]["t"] > 4.0


def test_start_is_idempotent():
    sim, registry, sampler = make(interval=0.5)
    registry.gauge("g", lambda: 1.0)
    sampler.start()
    sampler.start()  # no second daemon

    def run():
        yield sim.sleep(1.0)

    sim.spawn(run(), name="run")
    sim.run(until=1.0)
    assert len(sampler.rows) == 2  # not doubled
    assert sampler.running
    sampler.stop()
    assert not sampler.running


def test_sampler_never_keeps_the_simulation_alive():
    # the probing daemon uses weak ticks: with nothing else scheduled,
    # sim.run() returns immediately instead of ticking forever — and a
    # run with the sampler attached ends exactly when one without it does
    sim, registry, sampler = make(interval=0.1)
    registry.gauge("g", lambda: 1.0)
    sampler.start()
    sim.run()
    assert len(sampler.rows) == 0
    assert sampler.running

    def work():
        yield sim.sleep(0.35)

    sim.spawn(work(), name="work")
    sim.run()
    # ticks at 0.1, 0.2, 0.3 fired while the work was alive; the run
    # then stopped instead of sampling an idle system forever
    assert len(sampler.rows) == 3
    assert sim.now == pytest.approx(0.35)


def test_series_is_json_safe_and_series_of_drops_nan():
    sim, registry, sampler = make()
    registry.gauge("alive", lambda: 2.0)

    def dead():
        raise RuntimeError("crashed component")

    registry.gauge("dead", dead)
    sampler.sample_now()
    series = sampler.series()
    assert series[0]["alive"] == 2.0
    assert series[0]["dead"] is None  # NaN sanitised for JSON export
    assert sampler.series_of("alive") == [(0.0, 2.0)]
    assert sampler.series_of("dead") == []  # NaN probes dropped
    assert sampler.series_of("absent") == []
