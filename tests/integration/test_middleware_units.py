"""Direct MiddlewareReplica behaviours not covered by the scenario tests."""

import pytest

from repro.bench.costs import MicroCost
from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core import protocol
from repro.errors import CertificationAborted, TransactionAborted


def make_cluster(n=2, seed=1):
    cluster = SIRepCluster(ClusterConfig(n_replicas=n, seed=seed))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    return cluster, Driver(cluster.network, cluster.discovery)


def test_ddl_inside_transaction_rejected():
    cluster, driver = make_cluster()
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        yield from conn.execute("SELECT v FROM kv WHERE k = 1")  # txn open
        with pytest.raises(CertificationAborted):
            yield from conn.execute("CREATE TABLE nope (id INT PRIMARY KEY)")
        return True

    assert sim.run_process(client()) is True


def test_commit_with_no_statements_is_trivial():
    cluster, driver = make_cluster()
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        # drive a raw CommitReq with no preceding statements
        yield from conn.commit()  # driver-side no-op
        return True

    assert sim.run_process(client()) is True


def test_gid_format_and_outcomes_tracking():
    cluster, driver = make_cluster()
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
        gid = conn._gid
        yield from conn.commit()
        return gid

    gid = sim.run_process(client())
    assert gid.startswith("R0:g")
    sim.run(until=sim.now + 2.0)
    for replica in cluster.replicas:
        assert replica.in_doubt.outcomes[gid] == protocol.COMMITTED


def test_aborted_outcome_recorded_on_both_replicas():
    cluster, driver = make_cluster(seed=2)
    sim = cluster.sim
    gids = {}

    def client(name, address):
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("UPDATE kv SET v = v + 1 WHERE k = 1")
        gids[name] = conn._gid
        try:
            yield from conn.commit()
            gids[f"{name}-outcome"] = "committed"
        except Exception:
            gids[f"{name}-outcome"] = "aborted"

    sim.spawn(client("a", "R0"), name="a")
    sim.spawn(client("b", "R1"), name="b")
    sim.run()
    sim.run(until=sim.now + 2.0)
    winner = "a" if gids["a-outcome"] == "committed" else "b"
    loser = "b" if winner == "a" else "a"
    for replica in cluster.replicas:
        assert replica.in_doubt.outcomes[gids[winner]] == protocol.COMMITTED
        assert replica.in_doubt.outcomes[gids[loser]] == protocol.ABORTED


def test_ddl_log_grows_identically_on_all_replicas():
    cluster, driver = make_cluster()
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        yield from conn.execute("CREATE TABLE extra1 (id INT PRIMARY KEY)")
        yield from conn.execute("CREATE TABLE extra2 (id INT PRIMARY KEY)")

    sim.run_process(client())
    sim.run(until=sim.now + 1.0)
    logs = {tuple(replica.db.ddl_log) for replica in cluster.replicas}
    assert len(logs) == 1
    log = logs.pop()
    assert log[-2:] == (
        "CREATE TABLE extra1 (id INT PRIMARY KEY)",
        "CREATE TABLE extra2 (id INT PRIMARY KEY)",
    )


def test_cluster_stop_shuts_everything_down():
    cluster, driver = make_cluster()
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
        yield from conn.commit()

    sim.run_process(client())
    cluster.stop()
    assert cluster.alive_replicas() == []
    # the simulator drains without stalls or failures
    sim.run(until=sim.now + 2.0)


def test_statistics_counters():
    cluster, driver = make_cluster(seed=3)
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("SELECT v FROM kv WHERE k = 1")
        yield from conn.commit()  # read-only commit
        yield from conn.execute("UPDATE kv SET v = 2 WHERE k = 1")
        yield from conn.commit()  # replicated commit

    sim.run_process(client())
    sim.run(until=sim.now + 2.0)
    replica = cluster.replicas[0]
    assert replica.local.readonly_commits == 1
    assert replica.local.commits == 1
    assert cluster.total_commits() == 2
    assert cluster.total_certification_aborts() == 0


def test_outcome_table_stays_within_its_cap():
    """Regression: only global validation evicted, so local-validation
    aborts (and replayed or transferred outcomes) grew the in-doubt
    outcome table past ``outcomes_cap``."""
    cluster = SIRepCluster(ClusterConfig(
        n_replicas=2, seed=1, cost_model=lambda _index: MicroCost(),
    ))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in (1, 2)])
    driver = Driver(cluster.network, cluster.discovery)
    for replica in cluster.replicas:
        replica.in_doubt.outcomes_cap = 5
    sim = cluster.sim

    def client(cid):
        conn = yield from driver.connect(
            cluster.new_client_host(), address=f"R{cid % 2}"
        )
        for i in range(10):
            try:
                yield from conn.execute(
                    "UPDATE kv SET v = ? WHERE k = ?", (i, 1 + i % 2)
                )
                yield from conn.commit()
            except TransactionAborted:
                pass

    for cid in range(8):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.run()
    local_aborts = sum(r.local.aborts for r in cluster.replicas)
    assert local_aborts > 5  # the scenario does reach local validation
    for replica in cluster.replicas:
        assert len(replica.in_doubt.outcomes) <= replica.in_doubt.outcomes_cap
