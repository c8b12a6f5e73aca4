"""Unit tests for Event / Queue / Gate / OneShot."""

import pytest

from repro.errors import SimulationError
from repro.sim import Event, Gate, Queue, Simulator, wait_until
from repro.sim.sync import OneShot


# -- Event -------------------------------------------------------------------

def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    ev = Event()
    results = []

    def waiter(i):
        value = yield ev.wait()
        results.append((i, value, sim.now))

    for i in range(3):
        sim.spawn(waiter(i), name=f"w{i}")

    def setter():
        yield sim.sleep(2.0)
        ev.set("go")

    sim.spawn(setter(), name="setter")
    sim.run()
    assert results == [(0, "go", 2.0), (1, "go", 2.0), (2, "go", 2.0)]


def test_event_wait_after_set_is_immediate():
    sim = Simulator()
    ev = Event()
    ev.set(99)

    def waiter():
        value = yield ev.wait()
        return value, sim.now

    assert sim.run_process(waiter()) == (99, 0.0)


def test_event_throw_fails_waiters():
    sim = Simulator()
    ev = Event()

    def waiter():
        yield ev.wait()

    def thrower():
        yield sim.sleep(1.0)
        ev.throw(ValueError("nope"))

    sim.spawn(thrower(), name="thrower")
    with pytest.raises(ValueError, match="nope"):
        sim.run_process(waiter())


# -- Queue -------------------------------------------------------------------

def test_queue_put_then_get():
    sim = Simulator()
    q = Queue()
    q.put("x")

    def getter():
        return (yield q.get())

    assert sim.run_process(getter()) == "x"


def test_queue_get_blocks_until_put():
    sim = Simulator()
    q = Queue()

    def producer():
        yield sim.sleep(3.0)
        q.put("item")

    def consumer():
        item = yield q.get()
        return item, sim.now

    sim.spawn(producer(), name="prod")
    assert sim.run_process(consumer()) == ("item", 3.0)


def test_queue_fifo_for_items_and_getters():
    sim = Simulator()
    q = Queue()
    got = []

    def getter(i):
        item = yield q.get()
        got.append((i, item))

    for i in range(3):
        sim.spawn(getter(i), name=f"g{i}")

    def producer():
        yield sim.sleep(1.0)
        for item in "abc":
            q.put(item)

    sim.spawn(producer(), name="prod")
    sim.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_queue_len_and_peek():
    q = Queue()
    q.put(1)
    q.put(2)
    assert len(q) == 2
    assert q.peek_all() == [1, 2]


# -- Gate / wait_until ---------------------------------------------------------

def test_wait_until_checks_predicate_on_each_notify():
    sim = Simulator()
    gate = Gate()
    state = {"count": 0}
    wait_blocks = []

    def waiter():
        yield from wait_until(
            gate, lambda: state["count"] >= 3, on_wait=lambda: wait_blocks.append(sim.now)
        )
        return sim.now

    def bumper():
        for _ in range(3):
            yield sim.sleep(1.0)
            state["count"] += 1
            gate.notify_all()

    sim.spawn(bumper(), name="bumper")
    assert sim.run_process(waiter()) == 3.0
    # Blocked initially and after each insufficient notify.
    assert len(wait_blocks) == 3


def test_wait_until_true_predicate_never_blocks():
    sim = Simulator()
    gate = Gate()

    def waiter():
        yield from wait_until(gate, lambda: True)
        return "done"

    assert sim.run_process(waiter()) == "done"
    assert gate.waiter_count == 0


# -- OneShot -------------------------------------------------------------------

def test_oneshot_resolve():
    sim = Simulator()
    slot = OneShot()

    def resolver():
        yield sim.sleep(1.0)
        slot.resolve("result")

    def waiter():
        return (yield slot.wait())

    sim.spawn(resolver(), name="resolver")
    assert sim.run_process(waiter()) == "result"


def test_oneshot_fail():
    sim = Simulator()
    slot = OneShot()

    def failer():
        yield sim.sleep(1.0)
        slot.fail(ConnectionError("lost"))

    def waiter():
        yield slot.wait()

    sim.spawn(failer(), name="failer")
    with pytest.raises(ConnectionError):
        sim.run_process(waiter())


def test_oneshot_double_wait_rejected():
    sim = Simulator()
    slot = OneShot()

    def first():
        yield slot.wait()

    def second():
        yield sim.sleep(0.5)
        with pytest.raises(SimulationError):
            slot.wait()
        yield sim.sleep(0.0)
        slot.resolve(None)

    sim.spawn(first(), name="first")
    sim.spawn(second(), name="second")
    sim.run()
