"""Crash fuzzing on the sharded deployment: a random crash/recovery in
one group must not break that group's convergence or 1-copy-SI audit,
nor the cross-shard snapshot-freshness audit."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig
from repro.errors import DatabaseError
from repro.shard import ShardConfig, ShardedCluster
from repro.testing import query

TABLE_MAP = {"kv0": 0, "kv1": 1}


def build_cluster(seed):
    cluster = ShardedCluster(
        ShardConfig(
            n_groups=2,
            group=ClusterConfig(n_replicas=3, seed=seed),
            partition="explicit",
            table_map=TABLE_MAP,
        )
    )
    cluster.load_schema(
        [f"CREATE TABLE {t} (k INT PRIMARY KEY, v INT)" for t in TABLE_MAP]
    )
    for table in TABLE_MAP:
        cluster.bulk_load(table, [{"k": k, "v": 0} for k in range(1, 7)])
    return cluster


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_at=st.floats(min_value=0.1, max_value=1.5),
    victim_group=st.integers(min_value=0, max_value=1),
    victim=st.integers(min_value=0, max_value=2),
    recover=st.booleans(),
)
def test_random_crash_points_preserve_shard_consistency(
    seed, crash_at, victim_group, victim, recover
):
    cluster = build_cluster(seed)
    sim = cluster.sim
    rng = sim.rng("fuzz")
    committed = [0]

    def client(cid):
        conn = yield from cluster.connect(cluster.new_client_host())
        table = f"kv{cid % 2}"
        for i in range(25):
            yield sim.sleep(0.02 + rng.random() * 0.05)
            try:
                if i % 5 == 4:
                    # cross-shard read-only scatter-gather
                    yield from conn.execute("SELECT v FROM kv0 WHERE k = 1")
                    yield from conn.execute("SELECT v FROM kv1 WHERE k = 1")
                else:
                    yield from conn.execute(
                        f"UPDATE {table} SET v = ? WHERE k = ?",
                        (cid * 100 + i, rng.randint(1, 6)),
                    )
                yield from conn.commit()
                committed[0] += 1
            except DatabaseError:
                pass

    for cid in range(5):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.call_at(crash_at, lambda: cluster.crash(victim_group, victim))
    if recover:
        sim.call_at(
            crash_at + 1.0,
            lambda: cluster.recover_replica(victim_group, victim),
        )
    sim.run()
    sim.run(until=sim.now + 6.0)

    assert committed[0] > 20
    report = cluster.one_copy_report()
    assert report.ok, str(report)
    # alive replicas of every group converge on their own partition
    for group_index, group in enumerate(cluster.groups):
        table = f"kv{group_index}"
        states = {
            tuple(
                (r["k"], r["v"])
                for r in query(
                    sim, rep.node.db, f"SELECT k, v FROM {table} ORDER BY k"
                )
            )
            for rep in group.alive_replicas()
        }
        assert len(states) == 1
    expected_alive = 6 if recover else 5
    assert len(cluster.alive_replicas()) == expected_alive
