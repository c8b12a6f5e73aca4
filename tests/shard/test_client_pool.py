"""Sharded closed-loop clients actually commit through the router.

Regression guard: the read-scaling tier taught ``ClientPool`` to pass
``readonly=`` on every statement, but ``RouterConnection.execute`` did
not accept the keyword — every sharded client died on its first
statement with a ``TypeError`` the simulator swallowed, and the
benchmark silently measured zero throughput.  This pins the pool ->
router -> group path end to end, and the harness entry point with it.

Also pins what makes that entry point one: a sharded deployment is
described by the group's own :class:`ClusterConfig`, never by a copy.
"""

from dataclasses import fields

from repro.bench.costs import MicroCost
from repro.bench.harness import run_sirep
from repro.core import ClusterConfig
from repro.core.tocommit import Entry
from repro.core.validation import WsRecord
from repro.shard import ShardConfig, ShardedCluster
from repro.storage.writeset import UPDATE, WriteOp, WriteSet
from repro.workloads import ClientPool
from repro.workloads.sharded import make_partitioned_workload, make_table_map


def _workload(n_groups=2, rows=300):
    return make_partitioned_workload(
        n_groups, tables_per_group=4, rows_per_table=rows
    )


def _config(**group):
    return ShardConfig(
        n_groups=2,
        group=ClusterConfig(n_replicas=3, seed=0, **group),
        partition="explicit",
        table_map=make_table_map(2, 4),
    )


def test_shard_client_pool_commits():
    workload = _workload()
    cluster = ShardedCluster(_config(cost_model=lambda _i: MicroCost()))
    workload.install(cluster)
    pool = ClientPool(
        cluster, workload, 20, 100.0, 2.0, warmup=0.5, driver=cluster.router
    )
    stats = pool.run()
    # the sim must run the full duration (dead clients drain the queue)
    assert cluster.sim.now >= 2.0
    assert stats.categories["update"].commits > 0


def test_run_sirep_measures_a_shard_config():
    point = run_sirep(
        _workload(),
        100.0,
        _config(cost_model=lambda _i: MicroCost()),
        duration=2.0,
        warmup=0.5,
        profile=True,
    )
    assert point.system == "sharded x2"
    assert point.extras["commits"]["update"] > 0
    assert point.extras["update_commits"] > 0
    profile = point.extras["profile"]
    updates = profile["updates"]
    assert updates["n"] > 0
    assert updates["phases"]
    # attribution sums to end-to-end within the 1% acceptance bound
    assert updates["max_attribution_error"] <= 0.01


def test_shard_config_redeclares_no_cluster_field():
    shard = {f.name for f in fields(ShardConfig)}
    assert shard == {"n_groups", "group", "partition", "table_map"}
    assert not shard & {f.name for f in fields(ClusterConfig)}


def test_every_group_knob_reaches_every_replica():
    """Knobs the field-by-field copy never forwarded (unreachable on a
    sharded deployment before ``ShardConfig.group``)."""
    cluster = ShardedCluster(_config(salvage=True))
    replicas = [r for group in cluster.groups for r in group.replicas]
    assert [r.name for r in replicas] == [
        f"G{g}-R{i}" for g in range(2) for i in range(3)
    ]
    for replica in replicas:
        assert replica.salvage and replica.db.defer_blind_ww
        assert replica.manager.commit_pipeline is True
        # blind-write deferral stays open up to 16 queued entries
        queue = replica.manager.queue
        for i in range(17):
            assert replica.db.defer_gate() == (len(queue) <= 16)
            op = WriteOp("t", i, UPDATE, {"k": i})
            queue.append(Entry(WsRecord(f"g{i}", WriteSet([op]), cert=0)))
        assert not replica.db.defer_gate()
