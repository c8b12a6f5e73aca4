"""Durability on the sharded deployment: one shared store, per-group
watermarks, delta recovery within a group, elastic group growth, and
cold restart of the whole deployment."""

from repro.core import ClusterConfig
from repro.durable import DurabilityConfig, DurabilityStore
from repro.shard import ShardConfig, ShardedCluster
from repro.testing import query

TABLE_MAP = {"kv0": 0, "kv1": 1}


def build_cluster(seed=1, store=None, cold=False):
    config = ShardConfig(
        n_groups=2,
        group=ClusterConfig(n_replicas=3, seed=seed, durability=DurabilityConfig()),
        partition="explicit",
        table_map=TABLE_MAP,
    )
    if cold:
        return ShardedCluster.cold_restart(config, store)
    cluster = ShardedCluster(config, durability=store)
    cluster.load_schema(
        [f"CREATE TABLE {t} (k INT PRIMARY KEY, v INT)" for t in TABLE_MAP]
    )
    for table in TABLE_MAP:
        cluster.bulk_load(table, [{"k": k, "v": 0} for k in range(1, 4)])
    return cluster


def run_client(cluster, writes=10, table="kv0"):
    sim = cluster.sim

    def client():
        conn = yield from cluster.connect(cluster.new_client_host())
        for i in range(writes):
            yield sim.sleep(0.05)
            yield from conn.execute(
                f"UPDATE {table} SET v = ? WHERE k = ?", (i, 1 + i % 3)
            )
            yield from conn.commit()

    sim.spawn(client(), name="client")


def group_states(cluster, group, table):
    return {
        r.name: tuple(
            (row["k"], row["v"])
            for row in query(
                cluster.sim, r.node.db, f"SELECT k, v FROM {table} ORDER BY k"
            )
        )
        for r in cluster.groups[group].alive_replicas()
    }


def test_shard_names_are_globally_unique_in_the_shared_store():
    store = DurabilityStore(DurabilityConfig())
    cluster = build_cluster(store=store)
    run_client(cluster, writes=4)
    cluster.sim.run()
    assert sorted(store.names()) == sorted(
        r.name for g in cluster.groups for r in g.replicas
    )
    # the writing group logged writesets; each group has its own watermark
    g0 = cluster.groups[0]
    assert g0.stability is not cluster.groups[1].stability
    assert g0.stability.stable_seq() >= 4


def test_delta_recovery_within_one_group():
    cluster = build_cluster(seed=2)
    sim = cluster.sim
    sim.call_at(0.12, lambda: cluster.crash(0, 0))
    run_client(cluster, writes=8, table="kv0")
    sim.call_at(2.0, lambda: cluster.recover_replica(0, 0))
    sim.run()
    sim.run(until=sim.now + 5.0)
    recovered = cluster.groups[0].replicas[0]
    assert recovered.recovery.installed
    assert recovered.recovery.stats["mode"] == "delta"
    states = group_states(cluster, 0, "kv0")
    assert len(states) == 3
    assert len(set(states.values())) == 1
    report = cluster.one_copy_report()
    assert report.ok  # both group audits + cross-shard freshness


def test_elastic_join_grows_one_group():
    cluster = build_cluster(seed=3)
    sim = cluster.sim
    run_client(cluster, writes=8, table="kv1")
    group1 = TABLE_MAP["kv1"]
    sim.call_at(0.3, lambda: cluster.add_replica(group1))
    sim.run()
    sim.run(until=sim.now + 5.0)
    joined = cluster.groups[group1].replicas[3]
    assert joined.name == f"G{group1}-R3"
    assert joined.recovery.installed
    states = group_states(cluster, group1, "kv1")
    assert len(states) == 4
    assert len(set(states.values())) == 1
    assert cluster.one_copy_report().ok


def test_cold_restart_of_the_whole_sharded_deployment():
    store = DurabilityStore(DurabilityConfig())
    cluster = build_cluster(seed=4, store=store)
    run_client(cluster, writes=6, table="kv0")
    run_client(cluster, writes=6, table="kv1")
    cluster.sim.run()
    expected = {
        table: group_states(cluster, group, table)[f"G{group}-R0"]
        for table, group in TABLE_MAP.items()
    }
    cluster.stop()

    restarted = build_cluster(seed=5, store=store, cold=True)
    for table, group in TABLE_MAP.items():
        states = group_states(restarted, group, table)
        assert set(states.values()) == {expected[table]}
    # traffic continues and the audits still pass
    run_client(restarted, writes=4, table="kv0")
    restarted.sim.run()
    restarted.sim.run(until=restarted.sim.now + 3.0)
    assert restarted.one_copy_report().ok
    states = group_states(restarted, 0, "kv0")
    assert len(set(states.values())) == 1
