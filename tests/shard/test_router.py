"""Router semantics: single-group writes, cross-shard RO snapshots."""

import pytest

from repro.core import ClusterConfig
from repro.errors import (
    CrossShardStatementError,
    CrossShardWriteError,
    DatabaseError,
    PlacementError,
    SQLError,
)
from repro.shard import ShardConfig, ShardedCluster

TABLE_MAP = {"x0": 0, "y0": 0, "x1": 1, "y1": 1}
DDL = [f"CREATE TABLE {t} (k INT PRIMARY KEY, v INT)" for t in TABLE_MAP]


def make_cluster(seed=0):
    config = ShardConfig(
        n_groups=2,
        group=ClusterConfig(n_replicas=2, seed=seed),
        partition="explicit",
        table_map=TABLE_MAP,
    )
    cluster = ShardedCluster(config)
    cluster.load_schema(DDL)
    for table in TABLE_MAP:
        cluster.bulk_load(table, [{"k": k, "v": 0} for k in range(1, 4)])
    return cluster


def run(cluster, process):
    result = cluster.sim.run_process(process)
    cluster.sim.run(until=cluster.sim.now + 2.0)
    return result


def test_single_group_update_txns_commit():
    cluster = make_cluster()

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        yield from conn.execute("UPDATE x0 SET v = 7 WHERE k = 1")
        yield from conn.execute("UPDATE y0 SET v = 7 WHERE k = 1")
        yield from conn.commit()
        yield from conn.execute("UPDATE x1 SET v = 9 WHERE k = 1")
        yield from conn.commit()
        result = yield from conn.execute("SELECT v FROM x0 WHERE k = 1")
        yield from conn.commit()
        return result.rows[0]["v"]

    assert run(cluster, scenario()) == 7
    assert cluster.total_update_commits() == 2
    assert cluster.one_copy_report().ok


def test_multi_group_write_rejected_and_rolled_back():
    cluster = make_cluster()

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        # write then touch another group
        yield from conn.execute("UPDATE x0 SET v = 5 WHERE k = 1")
        with pytest.raises(CrossShardWriteError):
            yield from conn.execute("SELECT v FROM x1 WHERE k = 1")
        assert not conn.in_transaction
        # read one group then write another
        yield from conn.execute("SELECT v FROM x1 WHERE k = 1")
        with pytest.raises(CrossShardWriteError):
            yield from conn.execute("UPDATE x0 SET v = 6 WHERE k = 1")
        assert not conn.in_transaction
        # the rejected writes never became visible
        result = yield from conn.execute("SELECT v FROM x0 WHERE k = 1")
        yield from conn.commit()
        return result.rows[0]["v"]

    assert run(cluster, scenario()) == 0
    assert cluster.router.stats_rejected_writes == 2
    assert cluster.metrics()["rejected_cross_shard_writes"] == 2


def test_cross_group_join_is_a_statement_error():
    cluster = make_cluster()

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        with pytest.raises(CrossShardStatementError):
            yield from conn.execute(
                "SELECT x0.v FROM x0 JOIN x1 ON x0.k = x1.k"
            )
        # same-group join is fine
        result = yield from conn.execute(
            "SELECT x0.v FROM x0 JOIN y0 ON x0.k = y0.k WHERE x0.k = 1"
        )
        yield from conn.commit()
        return len(result.rows)

    assert run(cluster, scenario()) == 1


def test_cross_shard_readonly_scatter_gather_vector():
    cluster = make_cluster()

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        yield from conn.execute("UPDATE x0 SET v = 1 WHERE k = 1")
        yield from conn.commit()
        yield from conn.execute("UPDATE x1 SET v = 2 WHERE k = 1")
        yield from conn.commit()
        a = yield from conn.execute("SELECT v FROM x0 WHERE k = 1")
        b = yield from conn.execute("SELECT v FROM x1 WHERE k = 1")
        vector = conn.snapshot_vector
        yield from conn.commit()
        return a.rows[0]["v"], b.rows[0]["v"], vector

    a, b, vector = run(cluster, scenario())
    assert (a, b) == (1, 2)
    assert set(vector) == {0, 1}  # one snapshot csn per touched group
    assert cluster.router.stats_cross_shard_readonly == 1
    stamps = [s for s in cluster.snapshot_log if s.cross_shard]
    assert len(stamps) == 1
    assert stamps[0].vector == vector
    assert cluster.one_copy_report().ok


def test_ddl_rejected_inside_transaction():
    cluster = ShardedCluster(
        ShardConfig(n_groups=2, group=ClusterConfig(n_replicas=2))
    )
    cluster.load_schema(["CREATE TABLE base (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("base", [{"k": 1, "v": 0}])

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        yield from conn.execute("SELECT v FROM base WHERE k = 1")
        with pytest.raises(CrossShardWriteError):
            yield from conn.execute("CREATE TABLE zz (k INT PRIMARY KEY)")
        # routed DDL outside a transaction is applied and placed
        yield from conn.execute("CREATE TABLE zz (k INT PRIMARY KEY)")
        assert cluster.partitioner.knows("zz")

    run(cluster, scenario())


def test_rollback_spans_groups():
    cluster = make_cluster()

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        yield from conn.execute("SELECT v FROM x0 WHERE k = 1")
        yield from conn.execute("SELECT v FROM x1 WHERE k = 1")
        assert conn.in_transaction
        yield from conn.rollback()
        assert not conn.in_transaction
        assert conn.snapshot_vector == {}

    run(cluster, scenario())
    # rolled-back transactions leave no snapshot stamps
    assert cluster.snapshot_log == []


def test_schema_and_load_placement_validation():
    cluster = ShardedCluster(
        ShardConfig(n_groups=2, group=ClusterConfig(n_replicas=2),
                    partition="explicit", table_map=TABLE_MAP)
    )
    with pytest.raises(SQLError):
        cluster.load_schema(["UPDATE x0 SET v = 1 WHERE k = 1"])
    with pytest.raises(PlacementError):
        cluster.bulk_load("x0", [{"k": 1, "v": 0}])  # before CREATE placed it
    cluster.load_schema(DDL)
    cluster.bulk_load("x0", [{"k": 1, "v": 0}])
    with pytest.raises(PlacementError):
        cluster.load_schema(["CREATE TABLE stray (k INT PRIMARY KEY)"])


def test_per_group_consistency_under_concurrent_writes():
    """Each vector component is a real per-group snapshot: a reader never
    sees a torn x/y pair within one group, even while writers race."""
    cluster = make_cluster(seed=11)
    sim = cluster.sim
    torn = []

    def writer(group):
        conn = yield from cluster.connect(cluster.new_client_host())
        for value in range(1, 20):
            yield from conn.execute(
                f"UPDATE x{group} SET v = ? WHERE k = 1", (value,)
            )
            yield from conn.execute(
                f"UPDATE y{group} SET v = ? WHERE k = 1", (value,)
            )
            yield from conn.commit()
            yield sim.sleep(0.01)

    def reader():
        conn = yield from cluster.connect(cluster.new_client_host())
        for _round in range(30):
            values = {}
            for table in ("x0", "y0", "x1", "y1"):
                result = yield from conn.execute(
                    f"SELECT v FROM {table} WHERE k = 1"
                )
                values[table] = result.rows[0]["v"]
            yield from conn.commit()
            if values["x0"] != values["y0"] or values["x1"] != values["y1"]:
                torn.append(values)
            yield sim.sleep(0.007)

    sim.spawn(writer(0), name="w0")
    sim.spawn(writer(1), name="w1")
    sim.spawn(reader(), name="r")
    sim.run(until=3.0)

    assert torn == []
    report = cluster.one_copy_report()
    assert report.ok, str(report)
    assert cluster.router.stats_cross_shard_readonly >= 20


def test_close_closes_every_branch_and_the_connection():
    cluster = make_cluster()

    def scenario():
        conn = yield from cluster.connect(cluster.new_client_host())
        yield from conn.execute("SELECT v FROM x0 WHERE k = 1")
        yield from conn.execute("SELECT v FROM x1 WHERE k = 1")
        yield from conn.commit()
        branches = list(conn._branches.values())
        conn.close()
        with pytest.raises(DatabaseError, match="closed"):
            yield from conn.execute("SELECT v FROM x0 WHERE k = 1")
        return branches

    branches = run(cluster, scenario())
    assert len(branches) == 2
    assert all(branch.closed for branch in branches)
