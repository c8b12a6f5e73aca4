"""The Postgres-R(SI)-style kernel comparator ([34], §6.3)."""


from repro.client import Driver
from repro.core import ClusterConfig
from repro.core.kernel_replication import KernelReplicatedSystem
from repro.errors import TransactionAborted
from repro.testing import query


def make_system(n=3, seed=1):
    system = KernelReplicatedSystem(ClusterConfig(n_replicas=n, seed=seed))
    system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    system.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    return system, Driver(system.network, system.discovery)


def settle(system, seconds=2.0):
    system.sim.run(until=system.sim.now + seconds)


def test_update_propagates_everywhere():
    system, driver = make_system()
    sim = system.sim

    def client():
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 3 WHERE k = 1")
        yield from conn.commit()

    sim.run_process(client())
    settle(system)
    for node in system.nodes:
        assert query(sim, node.db, "SELECT v FROM kv WHERE k = 1") == [{"v": 3}]


def test_conflicting_writers_one_aborts():
    system, driver = make_system(seed=2)
    sim = system.sim
    outcomes = []

    def client(address, value):
        conn = yield from driver.connect(system.new_client_host(), address=address)
        try:
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = 1", (value,))
            yield from conn.commit()
            outcomes.append("committed")
        except TransactionAborted:
            outcomes.append("aborted")

    sim.spawn(client("KR0", 1), name="a")
    sim.spawn(client("KR1", 2), name="b")
    sim.run()
    settle(system)
    assert sorted(outcomes) == ["aborted", "committed"]
    states = {
        tuple(
            (r["k"], r["v"])
            for r in query(sim, node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for node in system.nodes
    }
    assert len(states) == 1


def test_remote_writeset_kills_conflicting_local_transaction():
    """The kernel privilege: a certified remote writeset aborts a local
    uncertified lock holder instead of waiting behind it (§4.3.1 notes a
    middleware cannot do this)."""
    system, driver = make_system(seed=3)
    sim = system.sim
    log = {}

    def local_holder():
        conn = yield from driver.connect(system.new_client_host(), address="KR0")
        yield from conn.execute("UPDATE kv SET v = 100 WHERE k = 2")
        yield sim.sleep(5.0)  # holds the row lock while remote ws arrives
        try:
            yield from conn.execute("UPDATE kv SET v = 101 WHERE k = 3")
            yield from conn.commit()
            log["local"] = "committed"
        except TransactionAborted:
            log["local"] = "killed"

    def remote_writer():
        yield sim.sleep(0.5)
        conn = yield from driver.connect(system.new_client_host(), address="KR1")
        yield from conn.execute("UPDATE kv SET v = 7 WHERE k = 2")
        yield from conn.commit()
        log["remote_done_at"] = sim.now

    sim.spawn(local_holder(), name="local")
    sim.spawn(remote_writer(), name="remote")
    sim.run()
    settle(system)
    assert log["local"] == "killed"
    # the remote commit did not wait for the local holder's 5s sleep
    assert log["remote_done_at"] < 1.0
    assert system.replicas[0].local_aborts_by_remote == 1
    for node in system.nodes:
        assert query(sim, node.db, "SELECT v FROM kv WHERE k = 2") == [{"v": 7}]


def test_blocked_local_transaction_is_woken_when_killed():
    """Killing a local holder that is itself waiting on another lock must
    wake it with an error (the lock-manager cancellation path)."""
    system, driver = make_system(seed=4)
    sim = system.sim
    log = {}

    def holder_of_3():
        conn = yield from driver.connect(system.new_client_host(), address="KR0")
        yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 3")
        yield sim.sleep(10.0)
        yield from conn.rollback()

    def victim():
        yield sim.sleep(0.2)
        conn = yield from driver.connect(system.new_client_host(), address="KR0")
        yield from conn.execute("UPDATE kv SET v = 2 WHERE k = 2")  # holds k=2
        try:
            # blocks behind holder_of_3 on k=3
            yield from conn.execute("UPDATE kv SET v = 2 WHERE k = 3")
            log["victim"] = "proceeded"
        except TransactionAborted:
            log["victim"] = "woken-and-aborted"
            log["at"] = sim.now

    def remote_writer():
        yield sim.sleep(1.0)
        conn = yield from driver.connect(system.new_client_host(), address="KR1")
        yield from conn.execute("UPDATE kv SET v = 9 WHERE k = 2")
        yield from conn.commit()  # kills the victim holding k=2

    sim.spawn(holder_of_3(), name="h3")
    sim.spawn(victim(), name="victim")
    sim.spawn(remote_writer(), name="remote")
    sim.run()
    settle(system)
    assert log["victim"] == "woken-and-aborted"
    assert log["at"] < 2.0  # long before holder_of_3's sleep ends


def test_readonly_transactions_unaffected():
    system, driver = make_system(seed=5)
    sim = system.sim

    def client():
        conn = yield from driver.connect(system.new_client_host())
        result = yield from conn.execute("SELECT COUNT(*) AS n FROM kv")
        yield from conn.commit()
        return result.rows

    assert sim.run_process(client()) == [{"n": 4}]


def test_micro_point_is_pinned():
    """An exact witness for the comparator: the micro workload at 50 tps
    on 5 replicas gives these figures, to the last bit, on every run."""
    from repro.bench.costs import MicroCost
    from repro.bench.harness import run_comparator
    from repro.workloads import micro

    config = ClusterConfig(n_replicas=5, cost_model=lambda _i: MicroCost())
    point = run_comparator(
        micro.make_workload(), 50, KernelReplicatedSystem(config),
        duration=3.0, warmup=0.5,
    )
    assert point.throughput == 53.437231749495716
    assert point.mean_rt_ms["update"] == 24.508741140218532
    assert point.abort_rate == 0.051470588235294115
    assert point.extras["commits"] == {"update": 129}
