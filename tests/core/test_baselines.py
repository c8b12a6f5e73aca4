"""Baseline systems: centralized passthrough and the [20] protocol."""


import pytest

from repro.client import Driver
from repro.core import ClusterConfig, KernelReplicatedSystem, PrimaryBackupSystem
from repro.core.baselines import (
    CentralizedSystem,
    OrderedTableLocks,
    ProcClient,
    Procedure,
    TableLockSystem,
    _LockRequest,
)
from repro.errors import SerializationFailure
from repro.testing import query


# -- OrderedTableLocks ---------------------------------------------------------


def test_ordered_locks_grant_immediately_when_free():
    locks = OrderedTableLocks()
    req = _LockRequest("r1", ("a", "b"))
    locks.enqueue(req)
    assert req.granted.is_set


def test_ordered_locks_fifo_per_table():
    locks = OrderedTableLocks()
    r1 = _LockRequest("r1", ("a",))
    r2 = _LockRequest("r2", ("a",))
    locks.enqueue(r1)
    locks.enqueue(r2)
    assert r1.granted.is_set and not r2.granted.is_set
    locks.release(r1)
    assert r2.granted.is_set


def test_ordered_locks_multi_table_no_deadlock():
    """Opposite-order table needs would deadlock with two-phase locking;
    ordered enqueue grants them strictly serially."""
    locks = OrderedTableLocks()
    r1 = _LockRequest("r1", ("a", "b"))
    r2 = _LockRequest("r2", ("b", "a"))
    locks.enqueue(r1)
    locks.enqueue(r2)
    assert r1.granted.is_set and not r2.granted.is_set
    locks.release(r1)
    assert r2.granted.is_set
    assert locks.waiting() == 0


def test_ordered_locks_partial_overlap():
    locks = OrderedTableLocks()
    r1 = _LockRequest("r1", ("a",))
    r2 = _LockRequest("r2", ("a", "b"))
    r3 = _LockRequest("r3", ("b",))
    for r in (r1, r2, r3):
        locks.enqueue(r)
    assert r1.granted.is_set
    assert not r2.granted.is_set
    assert not r3.granted.is_set  # behind r2 on table b
    locks.release(r1)
    assert r2.granted.is_set
    locks.release(r2)
    assert r3.granted.is_set


# -- Centralized baseline ---------------------------------------------------------


def make_central():
    system = CentralizedSystem(ClusterConfig(seed=1))
    system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    system.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 4)])
    return system, Driver(system.network, system.discovery)


def test_centralized_end_to_end():
    system, driver = make_central()
    sim = system.sim

    def client():
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 3 WHERE k = 1")
        yield from conn.commit()
        result = yield from conn.execute("SELECT v FROM kv WHERE k = 1")
        yield from conn.commit()
        return result.rows

    assert sim.run_process(client()) == [{"v": 3}]


def test_centralized_si_conflicts_still_detected():
    """The single DB still provides SI; concurrent writers conflict."""
    system, driver = make_central()
    sim = system.sim
    outcomes = []

    def client(value, delay):
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("SELECT v FROM kv WHERE k = 1")
        yield sim.sleep(delay)
        try:
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = 1", (value,))
            yield sim.sleep(1.0)
            yield from conn.commit()
            outcomes.append("committed")
        except SerializationFailure:
            outcomes.append("aborted")

    sim.spawn(client(1, 0.0), name="c1")
    sim.spawn(client(2, 0.5), name="c2")
    sim.run()
    assert sorted(outcomes) == ["aborted", "committed"]


# -- TableLockSystem ([20]) --------------------------------------------------------


def procedures():
    def transfer(params):
        src, dst, amount = params
        return [
            ("UPDATE kv SET v = v - ? WHERE k = ?", (amount, src)),
            ("UPDATE kv SET v = v + ? WHERE k = ?", (amount, dst)),
        ]

    def read_all(params):
        return [("SELECT k, v FROM kv ORDER BY k", ())]

    return {
        "transfer": Procedure("transfer", ("kv",), transfer),
        "read_all": Procedure("read_all", ("kv",), read_all, readonly=True),
    }


def make_tablelock(n=3):
    system = TableLockSystem(procedures(), ClusterConfig(n_replicas=n, seed=2))
    system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    system.bulk_load("kv", [{"k": k, "v": 100} for k in range(1, 4)])
    return system


def test_tablelock_update_propagates_everywhere():
    system = make_tablelock()
    sim = system.sim

    def client():
        proc_client = ProcClient(system, system.new_client_host())
        yield from proc_client.connect(address="TL0")
        yield from proc_client.call("transfer", (1, 2, 30))

    sim.run_process(client())
    sim.run(until=sim.now + 2.0)
    for replica in system.replicas:
        rows = query(sim, replica.db, "SELECT k, v FROM kv ORDER BY k")
        assert rows == [
            {"k": 1, "v": 70},
            {"k": 2, "v": 130},
            {"k": 3, "v": 100},
        ]


def test_tablelock_serializes_conflicting_procedures():
    """Same-table transactions at different replicas execute in the total
    delivery order everywhere — no lost updates."""
    system = make_tablelock()
    sim = system.sim
    done = []

    def client(origin, amount):
        proc_client = ProcClient(system, system.new_client_host())
        yield from proc_client.connect(address=origin)
        yield from proc_client.call("transfer", (1, 2, amount))
        done.append(origin)

    sim.spawn(client("TL0", 10), name="a")
    sim.spawn(client("TL1", 20), name="b")
    sim.spawn(client("TL2", 5), name="c")
    sim.run()
    sim.run(until=sim.now + 2.0)
    assert len(done) == 3
    states = set()
    for replica in system.replicas:
        rows = query(sim, replica.db, "SELECT k, v FROM kv ORDER BY k")
        states.add(tuple((r["k"], r["v"]) for r in rows))
    assert states == {((1, 65), (2, 135), (3, 100))}


def test_tablelock_readonly_runs_locally():
    system = make_tablelock()
    sim = system.sim

    def client():
        proc_client = ProcClient(system, system.new_client_host())
        yield from proc_client.connect(address="TL1")
        rows = yield from proc_client.call("read_all", (), readonly=True)
        return rows

    rows = sim.run_process(client())
    assert [r["k"] for r in rows] == [1, 2, 3]
    # No writeset message was needed: only the initial view changes and
    # zero transaction multicasts hit the bus.
    assert all(replica.db.commits >= 1 for replica in system.replicas[1:2])


def test_tablelock_origin_keeps_no_writeset_waiters():
    """Only the non-origin replicas wait for a writeset; the origin's own
    delivery of it must not leave a waiter behind (one per transaction)."""
    system = make_tablelock()
    sim = system.sim

    def client():
        proc_client = ProcClient(system, system.new_client_host())
        yield from proc_client.connect(address="TL0")
        for _ in range(50):
            yield from proc_client.call("transfer", (1, 2, 1))

    sim.run_process(client())
    sim.run(until=sim.now + 2.0)
    assert [len(replica._ws_events) for replica in system.replicas] == [0, 0, 0]


def test_tablelock_one_round_trip_per_transaction():
    """The client exchanges exactly one request/response per transaction
    ([20]'s advantage over SRCA's per-statement round trips)."""
    system = make_tablelock()
    sim = system.sim
    latency = {}

    def client():
        proc_client = ProcClient(system, system.new_client_host())
        yield from proc_client.connect(address="TL0")
        start = sim.now
        yield from proc_client.call("transfer", (1, 2, 1))
        latency["value"] = sim.now - start

    sim.run_process(client())
    # one client round trip + one GCS round trip + execution (zero cost)
    assert latency["value"] < 0.01


# -- every comparator ---------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        CentralizedSystem,
        lambda config: TableLockSystem(procedures(), config),
        KernelReplicatedSystem,
        PrimaryBackupSystem,
    ],
    ids=["centralized", "tablelock", "kernel", "primary_backup"],
)
def test_comparators_run_on_the_simulator_only(build):
    with pytest.raises(ValueError, match="simulator-only"):
        build(ClusterConfig(runtime="wall"))
