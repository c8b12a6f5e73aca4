"""Unit tests for the lock manager and deadlock detection."""


from repro.errors import DeadlockDetected
from repro.sim import Simulator
from repro.storage.locks import LockManager


def test_uncontended_acquire_is_immediate():
    sim = Simulator()
    locks = LockManager()

    def proc():
        yield from locks.acquire("t1", "k")
        return sim.now

    assert sim.run_process(proc()) == 0.0
    assert locks.holder("k") == "t1"


def test_reentrant_acquire():
    sim = Simulator()
    locks = LockManager()

    def proc():
        yield from locks.acquire("t1", "k")
        yield from locks.acquire("t1", "k")  # must not self-block
        return True

    assert sim.run_process(proc()) is True


def test_contended_acquire_blocks_until_release():
    sim = Simulator()
    locks = LockManager()
    log = []

    def holder():
        yield from locks.acquire("t1", "k")
        yield sim.sleep(5.0)
        locks.release_all("t1")

    def waiter():
        yield sim.sleep(1.0)
        yield from locks.acquire("t2", "k")
        log.append(sim.now)

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter(), name="waiter")
    sim.run()
    assert log == [5.0]
    assert locks.holder("k") == "t2"


def test_fifo_grant_order():
    sim = Simulator()
    locks = LockManager()
    order = []

    def holder():
        yield from locks.acquire("t0", "k")
        yield sim.sleep(1.0)
        locks.release_all("t0")

    def waiter(name, delay):
        yield sim.sleep(delay)
        yield from locks.acquire(name, "k")
        order.append(name)
        locks.release_all(name)

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter("t1", 0.1), name="w1")
    sim.spawn(waiter("t2", 0.2), name="w2")
    sim.spawn(waiter("t3", 0.3), name="w3")
    sim.run()
    assert order == ["t1", "t2", "t3"]


def test_release_all_returns_keys_and_cleans_up():
    sim = Simulator()
    locks = LockManager()

    def proc():
        yield from locks.acquire("t1", "a")
        yield from locks.acquire("t1", "b")
        return locks.release_all("t1")

    released = sim.run_process(proc())
    assert set(released) == {"a", "b"}
    assert locks.held_count() == 0


def test_two_party_deadlock_detected():
    sim = Simulator()
    locks = LockManager()
    outcomes = {}

    def t1():
        yield from locks.acquire("t1", "x")
        yield sim.sleep(1.0)
        try:
            yield from locks.acquire("t1", "y")
            outcomes["t1"] = "ok"
        except DeadlockDetected:
            outcomes["t1"] = "deadlock"
            locks.release_all("t1")

    def t2():
        yield from locks.acquire("t2", "y")
        yield sim.sleep(0.5)
        yield from locks.acquire("t2", "x")  # blocks behind t1
        outcomes["t2"] = "ok"
        locks.release_all("t2")

    sim.spawn(t1(), name="t1")
    sim.spawn(t2(), name="t2")
    sim.run()
    # t2 blocks on x at 0.5; t1 requests y at 1.0 -> cycle -> t1 aborts.
    assert outcomes == {"t1": "deadlock", "t2": "ok"}
    assert locks.deadlocks_detected == 1


def test_three_party_deadlock_detected():
    sim = Simulator()
    locks = LockManager()
    outcomes = {}

    def party(me, first, second, delay):
        yield from locks.acquire(me, first)
        yield sim.sleep(delay)
        try:
            yield from locks.acquire(me, second)
            outcomes[me] = "ok"
        except DeadlockDetected:
            outcomes[me] = "deadlock"
        locks.release_all(me)

    sim.spawn(party("a", "x", "y", 1.0), name="a")
    sim.spawn(party("b", "y", "z", 1.0), name="b")
    sim.spawn(party("c", "z", "x", 2.0), name="c")
    sim.run()
    # a waits for b, b waits for c; c's request on x closes the cycle.
    assert outcomes["c"] == "deadlock"
    assert outcomes["a"] == "ok"
    assert outcomes["b"] == "ok"


def test_deadlock_through_wait_queue_position():
    """A requester behind another waiter must see the full waits-for chain."""
    sim = Simulator()
    locks = LockManager()
    outcomes = {}

    def holder():
        yield from locks.acquire("h", "k")
        yield sim.sleep(2.0)
        try:
            # h waits for w (w is queued on k before h's second need? no -
            # h holds k; h now wants "w-held" which w holds -> cycle via
            # w waiting on k).
            yield from locks.acquire("h", "w-held")
            outcomes["h"] = "ok"
        except DeadlockDetected:
            outcomes["h"] = "deadlock"
            locks.release_all("h")

    def waiter():
        yield from locks.acquire("w", "w-held")
        yield sim.sleep(1.0)
        yield from locks.acquire("w", "k")
        outcomes["w"] = "ok"
        locks.release_all("w")

    sim.spawn(holder(), name="h")
    sim.spawn(waiter(), name="w")
    sim.run()
    assert outcomes == {"h": "deadlock", "w": "ok"}


def test_no_false_deadlock_on_simple_contention():
    sim = Simulator()
    locks = LockManager()

    def t1():
        yield from locks.acquire("t1", "x")
        yield sim.sleep(1.0)
        locks.release_all("t1")

    def t2():
        yield sim.sleep(0.5)
        yield from locks.acquire("t2", "x")
        locks.release_all("t2")
        return "fine"

    sim.spawn(t1(), name="t1")
    assert sim.run_process(t2()) == "fine"
    assert locks.deadlocks_detected == 0


def test_release_all_removes_from_wait_queue():
    sim = Simulator()
    locks = LockManager()
    order = []

    def holder():
        yield from locks.acquire("h", "k")
        yield sim.sleep(2.0)
        locks.release_all("h")

    def doomed():
        yield sim.sleep(0.1)
        yield from locks.acquire("d", "k")
        order.append("d")  # never reached; we cancel it below

    def survivor():
        yield sim.sleep(0.2)
        yield from locks.acquire("s", "k")
        order.append("s")

    sim.spawn(holder(), name="h")
    doomed_proc = sim.spawn(doomed(), name="d")
    sim.spawn(survivor(), name="s")
    sim.run(until=1.0)
    doomed_proc.kill()
    locks.release_all("d")
    sim.run()
    assert order == ["s"]
    assert locks.holder("k") == "s"


def test_release_all_grants_in_lock_table_order():
    """A release grants the waiters of its keys in the order the locks
    were created, not the order the releasing transaction took them:
    ``h`` takes ``second`` first, then ``first`` (created earlier by
    ``o``), and ``first``'s waiter still resumes first."""
    sim = Simulator()
    locks = LockManager()
    order = []

    def owner():
        yield from locks.acquire("o", "first")
        yield sim.sleep(1.0)
        locks.release_all("o")

    def releaser():
        yield sim.sleep(0.1)
        yield from locks.acquire("h", "second")
        yield sim.sleep(0.1)
        yield from locks.acquire("h", "first")
        yield sim.sleep(1.0)
        assert locks.release_all("h") == ["first", "second"]

    def waiter(name, key, delay):
        yield sim.sleep(delay)
        yield from locks.acquire(name, key)
        order.append(name)
        locks.release_all(name)

    sim.spawn(owner(), name="o")
    sim.spawn(releaser(), name="h")
    sim.spawn(waiter("w-second", "second", 0.3), name="w-second")
    sim.spawn(waiter("w-first", "first", 0.4), name="w-first")
    sim.run()
    assert order == ["w-first", "w-second"]
    assert locks.held_count() == 0 and locks.waiting_count() == 0
