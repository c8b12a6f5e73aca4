"""Fig. 3(b): centralized-replicated middleware (primary + backup)."""


from repro.client import Driver
from repro.core import ClusterConfig
from repro.core.primary_backup import PrimaryBackupSystem
from repro.errors import TransactionAborted
from repro.testing import query


def make_system(n=3, seed=1):
    system = PrimaryBackupSystem(ClusterConfig(n_replicas=n, seed=seed))
    system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    system.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    return system, Driver(system.network, system.discovery)


def settle(system, seconds=3.0):
    system.sim.run(until=system.sim.now + seconds)


def db_states(system):
    return {
        node.name: tuple(
            (r["k"], r["v"])
            for r in query(system.sim, node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for node in system.nodes
    }


def test_normal_operation_replicates_to_all_databases():
    system, driver = make_system()
    sim = system.sim

    def client():
        conn = yield from driver.connect(system.new_client_host())
        assert conn.address == "mw-primary"
        yield from conn.execute("UPDATE kv SET v = 9 WHERE k = 1")
        yield from conn.commit()

    sim.run_process(client())
    settle(system)
    states = db_states(system)
    assert len(set(states.values())) == 1
    assert states["pbdb0"][0] == (1, 9)


def test_conflicting_writers_certified():
    system, driver = make_system(seed=2)
    sim = system.sim
    outcomes = []

    def client(value):
        conn = yield from driver.connect(system.new_client_host())
        try:
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = 1", (value,))
            yield from conn.commit()
            outcomes.append("committed")
        except TransactionAborted:
            outcomes.append("aborted")

    sim.spawn(client(1), name="a")
    sim.spawn(client(2), name="b")
    sim.run()
    settle(system)
    assert sorted(outcomes) == ["aborted", "committed"]
    assert len(set(db_states(system).values())) == 1


def test_backup_takeover_preserves_committed_state():
    """Crash the primary after a commit: the backup re-applies whatever
    any database is missing and serves clients."""
    system, driver = make_system(seed=3)
    sim = system.sim
    log = {}

    def client():
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 42 WHERE k = 2")
        yield from conn.commit()
        yield sim.sleep(0.2)
        system.crash_primary()
        # next statement fails over to the backup (case 1: idle)
        result = yield from conn.execute("SELECT v FROM kv WHERE k = 2")
        yield from conn.commit()
        log["value"] = result.rows[0]["v"]
        log["address"] = conn.address

    sim.spawn(client(), name="client")
    sim.run()
    settle(system, 5.0)
    assert log["value"] == 42
    assert log["address"] == "mw-backup"
    assert system.active_name == "mw-backup"
    assert len(set(db_states(system).values())) == 1


def test_takeover_completes_partially_applied_transactions():
    """A writeset sequenced before the crash must end up on *every*
    database even if the primary died before propagating it."""
    from repro.storage.engine import CostModel

    class SlowApply(CostModel):
        def statement(self, kind, a, b, c):
            return (0.0, 0.0)

        def writeset_apply(self, n):
            return (2.0, 0.0)  # remote copies lag the local commit

        def commit(self, n):
            return (0.0, 0.0)

    system = PrimaryBackupSystem(
        ClusterConfig(n_replicas=3, seed=4, cost_model=lambda i: SlowApply())
    )
    system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    system.bulk_load("kv", [{"k": 1, "v": 0}])
    driver = Driver(system.network, system.discovery)
    sim = system.sim
    log = {}

    def client():
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 7 WHERE k = 1")
        yield from conn.commit()  # committed at the home DB; applies lag
        log["committed_at"] = sim.now
        system.crash_primary()  # remote applies are still in flight

    sim.spawn(client(), name="client")
    sim.run()
    settle(system, 8.0)
    states = db_states(system)
    assert set(states.values()) == {((1, 7),)}


def test_in_doubt_commit_resolved_by_backup():
    """Case 3 against the backup: commit in flight when the primary dies;
    the inquiry is answered from the mirrored certification metadata."""
    system, driver = make_system(seed=5)
    sim = system.sim
    log = {}

    def client():
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 5 WHERE k = 3")
        sim.call_at(sim.now + 0.05, system.crash_primary)  # after multicast
        yield from conn.commit()  # resolved transparently via the backup
        log["ok"] = True

    sim.spawn(client(), name="client")
    sim.run()
    settle(system, 5.0)
    assert log["ok"]
    states = db_states(system)
    assert set(states.values()) == {((1, 0), (2, 0), (3, 5), (4, 0))}


def test_commit_in_flight_at_primary_crash_is_resolved_by_an_inquiry():
    """§5.4 case 3 on primary/backup: the primary dies while the home
    database is still committing a certified writeset, so the driver
    asks the backup for the gid's outcome, and it answers committed."""
    from repro.storage.engine import CostModel

    class SlowCommit(CostModel):
        def statement(self, kind, a, b, c):
            return (0.0, 0.0)

        def writeset_apply(self, n):
            return (0.0, 0.0)

        def commit(self, n):
            return (1.0, 0.0)  # the home commit outlives the primary

    system = PrimaryBackupSystem(
        ClusterConfig(n_replicas=3, seed=5, cost_model=lambda i: SlowCommit())
    )
    system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    system.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    driver = Driver(system.network, system.discovery)
    sim = system.sim
    inquiries = []
    inquire = system.backup._inquire

    def recording_inquire(gid, crashed):
        outcome = yield from inquire(gid, crashed)
        inquiries.append((gid, crashed, outcome))
        return outcome

    system.backup._inquire = recording_inquire
    log = {}

    def client():
        conn = yield from driver.connect(system.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 5 WHERE k = 3")
        sim.call_at(sim.now + 0.5, system.crash_primary)
        yield from conn.commit()  # transparent: the inquiry says committed
        log["ok"] = True

    sim.spawn(client(), name="client")
    sim.run()
    settle(system, 5.0)
    assert log["ok"]
    assert inquiries == [("mw-primary:g1", "mw-primary", "committed")]
    states = db_states(system)
    assert set(states.values()) == {((1, 0), (2, 0), (3, 5), (4, 0))}


def test_orphaned_active_transactions_are_aborted_at_takeover():
    system, driver = make_system(seed=6)
    sim = system.sim

    def client():
        conn = yield from driver.connect(system.new_client_host())
        # open a transaction and leave it hanging when the primary dies
        yield from conn.execute("UPDATE kv SET v = 99 WHERE k = 4")
        yield sim.sleep(0.5)
        system.crash_primary()
        yield sim.sleep(3.0)

    sim.spawn(client(), name="client")
    sim.run()
    settle(system, 3.0)
    # the uncommitted update is gone everywhere
    for node in system.nodes:
        assert node.db.active_count == 0
        assert query(sim, node.db, "SELECT v FROM kv WHERE k = 4") == [{"v": 0}]


def test_micro_point_is_pinned():
    """An exact witness for the comparator: 20 closed-loop micro clients
    offering 30 tps to 3 databases give these figures on every run."""
    from repro.bench.costs import MicroCost
    from repro.workloads import ClientPool, micro

    workload = micro.make_workload()
    system = PrimaryBackupSystem(
        ClusterConfig(n_replicas=3, cost_model=lambda _i: MicroCost())
    )
    workload.install(system)
    stats = ClientPool(system, workload, 20, 30, 3.0, warmup=0.5).run()
    updates = stats.categories["update"]
    assert stats.throughput() == 33.23542671927292
    assert stats.abort_rate() == 0.03529411764705882
    assert updates.commits == 82
    assert updates.percentile_ms(50) == 20.463380742280822
