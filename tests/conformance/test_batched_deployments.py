"""The 1-copy-SI audit must pass in every batched deployment shape:
plain replicated, sharded (per-group buses batching independently), and
under randomized crash/recovery fuzzing (slow suite).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.errors import DatabaseError
from repro.gcs import GcsConfig
from repro.shard import ShardConfig, ShardedCluster
from repro.testing import query

BATCHED_GCS = GcsConfig(batch_max_messages=4, batch_window=0.003)


def test_plain_batched_cluster_audit_passes():
    cluster = SIRepCluster(
        ClusterConfig(n_replicas=3, seed=2, gcs=BATCHED_GCS, group_commit=True)
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 9)])
    driver = Driver(cluster.network, cluster.discovery)
    rng = sim.rng("load")

    def client(cid):
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(12):
            yield sim.sleep(rng.random() * 0.01)
            try:
                if i % 4 == 3:
                    yield from conn.execute("SELECT v FROM kv WHERE k = 1")
                else:
                    yield from conn.execute(
                        "UPDATE kv SET v = ? WHERE k = ?",
                        (cid * 100 + i, rng.randint(1, 8)),
                    )
                yield from conn.commit()
            except DatabaseError:
                pass

    for cid in range(4):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.run()
    sim.run(until=sim.now + 3.0)
    assert cluster.bus.delivered_batches > 0  # batching actually engaged
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]
    states = {
        tuple(
            (r["k"], r["v"])
            for r in query(sim, rep.node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for rep in cluster.replicas
    }
    assert len(states) == 1


def test_sharded_batched_cluster_audit_passes():
    """Each group's bus batches its own writeset stream; the per-group
    audits and the cross-shard freshness audit must all hold."""
    table_map = {"kv0": 0, "kv1": 1}
    cluster = ShardedCluster(
        ShardConfig(
            n_groups=2,
            group=ClusterConfig(
                n_replicas=3, seed=4, gcs=BATCHED_GCS, group_commit=True
            ),
            partition="explicit",
            table_map=table_map,
        )
    )
    sim = cluster.sim
    cluster.load_schema(
        [f"CREATE TABLE {t} (k INT PRIMARY KEY, v INT)" for t in table_map]
    )
    for table in table_map:
        cluster.bulk_load(table, [{"k": k, "v": 0} for k in range(1, 7)])
    rng = sim.rng("load")

    def client(cid):
        conn = yield from cluster.connect(cluster.new_client_host())
        table = f"kv{cid % 2}"
        for i in range(12):
            yield sim.sleep(rng.random() * 0.01)
            try:
                if i % 5 == 4:
                    yield from conn.execute("SELECT v FROM kv0 WHERE k = 1")
                    yield from conn.execute("SELECT v FROM kv1 WHERE k = 1")
                else:
                    yield from conn.execute(
                        f"UPDATE {table} SET v = ? WHERE k = ?",
                        (cid * 100 + i, rng.randint(1, 6)),
                    )
                yield from conn.commit()
            except DatabaseError:
                pass

    for cid in range(4):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.run()
    sim.run(until=sim.now + 3.0)
    assert any(group.bus.delivered_batches > 0 for group in cluster.groups)
    report = cluster.one_copy_report()
    assert report.ok, str(report)


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_at=st.floats(min_value=0.1, max_value=1.5),
    victim=st.integers(min_value=0, max_value=2),
    recover=st.booleans(),
)
def test_batched_random_crash_points_preserve_consistency(
    seed, crash_at, victim, recover
):
    """The unbatched crash-fuzz invariants, with batching + group commit
    on: convergence, the 1-copy-SI audit, and expected survivorship."""
    cluster = SIRepCluster(
        ClusterConfig(n_replicas=3, seed=seed, gcs=BATCHED_GCS, group_commit=True)
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 7)])
    driver = Driver(cluster.network, cluster.discovery)
    rng = sim.rng("fuzz")
    committed = [0]

    def client(cid):
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(25):
            yield sim.sleep(0.02 + rng.random() * 0.05)
            try:
                yield from conn.execute(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    (cid * 100 + i, rng.randint(1, 6)),
                )
                yield from conn.commit()
                committed[0] += 1
            except DatabaseError:
                pass

    for cid in range(5):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.call_at(crash_at, lambda: cluster.crash(victim))
    if recover:
        sim.call_at(crash_at + 1.0, lambda: cluster.recover_replica(victim))
    sim.run()
    sim.run(until=sim.now + 6.0)

    assert committed[0] > 20
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]
    states = {
        tuple(
            (r["k"], r["v"])
            for r in query(sim, rep.node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for rep in cluster.alive_replicas()
    }
    assert len(states) == 1
    expected_alive = 3 if recover else 2
    assert len(cluster.alive_replicas()) == expected_alive
