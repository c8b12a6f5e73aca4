"""Unit and property tests for the FIFO queueing Resource."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator


def test_single_server_serializes_jobs():
    sim = Simulator()
    cpu = Resource(sim, "cpu", servers=1)
    done = []

    def job(name, demand):
        yield from cpu.use(demand)
        done.append((name, sim.now))

    sim.spawn(job("a", 1.0), name="a")
    sim.spawn(job("b", 2.0), name="b")
    sim.spawn(job("c", 0.5), name="c")
    sim.run()
    assert done == [("a", 1.0), ("b", 3.0), ("c", 3.5)]


def test_multi_server_parallelism():
    sim = Simulator()
    cpu = Resource(sim, "cpu", servers=2)
    done = []

    def job(name):
        yield from cpu.use(1.0)
        done.append((name, sim.now))

    for name in "abcd":
        sim.spawn(job(name), name=name)
    sim.run()
    # Two at a time: a,b finish at 1.0; c,d at 2.0.
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0), ("d", 2.0)]


def test_zero_demand_job_passes_through():
    sim = Simulator()
    cpu = Resource(sim, "cpu")

    def job():
        yield from cpu.use(0.0)
        return sim.now

    assert sim.run_process(job()) == 0.0


def test_negative_demand_rejected():
    sim = Simulator()
    cpu = Resource(sim, "cpu")

    def job():
        yield from cpu.use(-1.0)

    with pytest.raises(SimulationError):
        sim.run_process(job())


def test_utilization_accounting():
    sim = Simulator()
    cpu = Resource(sim, "cpu", servers=1)

    def job():
        yield from cpu.use(2.0)

    def idle():
        yield sim.sleep(4.0)

    sim.spawn(job(), name="job")
    sim.spawn(idle(), name="idle")
    sim.run()
    assert cpu.utilization() == pytest.approx(0.5)
    assert cpu.jobs_served == 1


def test_invalid_server_count():
    with pytest.raises(SimulationError):
        Resource(Simulator(), "bad", servers=0)


@settings(max_examples=50, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=20),
    servers=st.integers(min_value=1, max_value=4),
)
def test_property_makespan_and_conservation(demands, servers):
    """Work conservation: total busy time equals sum of demands, and the
    makespan is bounded by [max(total/servers, max_demand), total]."""
    sim = Simulator()
    cpu = Resource(sim, "cpu", servers=servers)
    finish = []

    def job(demand):
        yield from cpu.use(demand)
        finish.append(sim.now)

    for demand in demands:
        sim.spawn(job(demand), name="j")
    sim.run()
    total = sum(demands)
    makespan = max(finish)
    assert cpu.total_service_time == pytest.approx(total)
    lower = max(total / servers, max(demands))
    assert makespan >= lower - 1e-9
    assert makespan <= total + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=15))
def test_property_fifo_completion_order_single_server(demands):
    """With one server and simultaneous arrival, jobs finish in spawn order."""
    sim = Simulator()
    cpu = Resource(sim, "cpu", servers=1)
    order = []

    def job(i, demand):
        yield from cpu.use(demand)
        order.append(i)

    for i, demand in enumerate(demands):
        sim.spawn(job(i, demand), name=str(i))
    sim.run()
    assert order == list(range(len(demands)))
