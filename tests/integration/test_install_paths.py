"""Every way state enters a fresh engine ends in the same state.

A replica or reader that did not live through the whole run — delta or
full recovery, an elastic join, a cold restart, a reader joining by log
or by snapshot — must end with the committed rows, the DDL history and
the csn (a reader's watermark) of a replica that did, and the offline
Def. 3 audit must pass.  The two regression tests pin the install-path
bugs: a full-state joiner whose csn restarted at 0 (so a session-token
read was never answered), and a cold restart with readers failing once
a log had been truncated.
"""

import itertools

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster, protocol
from repro.durable import DurabilityConfig, DurabilityStore

EXTRA_DDL = "CREATE TABLE extra (id INT PRIMARY KEY, v INT)"


def truncating(policy="conservative"):
    return DurabilityConfig(
        checkpoint_interval=0.4, truncate_interval=0.3, segment_records=4,
        truncation=policy,
    )


def make_cluster(seed, store=None, **kwargs):
    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=seed, **kwargs),
                           durability=store)
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 6)])
    return cluster, itertools.count(1000)


def settle(cluster, seconds=5.0):
    cluster.sim.run()
    cluster.sim.run(until=cluster.sim.now + seconds)


def traffic(cluster, keys, n, start, spacing=0.05, address="R1", ddl=False):
    """``n`` single-statement transactions through ``address``: updates
    and inserts (new primary keys drawn from ``keys``), and (``ddl``) one
    replicated CREATE first plus inserts into the new table."""
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)

    def client():
        yield sim.sleep(start)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        if ddl:
            yield from conn.execute(EXTRA_DDL)
        for i in range(n):
            fresh = next(keys)
            if i % 7 == 3:
                statement = "INSERT INTO kv (k, v) VALUES (?, ?)", (fresh, i)
            elif i % 7 == 5 and ddl:
                statement = "INSERT INTO extra (id, v) VALUES (?, ?)", (fresh, i)
            else:
                statement = "UPDATE kv SET v = ? WHERE k = ?", (i, 1 + i % 5)
            yield from conn.execute(*statement)
            yield from conn.commit()
            yield sim.sleep(spacing)
        conn.close()

    sim.spawn(client(), name=f"traffic@{start}")


def engine_state(node):
    """What an install path must reproduce: rows, DDL history, csn."""
    db = node.db
    rows = {
        table: sorted(table_rows, key=repr)
        for table, table_rows in db.export_committed().items()
    }
    return rows, tuple(db.ddl_log), db.csn


# -- the paths: each returns (cluster, [nodes under test], reference state) ------


def delta_recovery():
    cluster, keys = make_cluster(1, durable=True)
    cluster.sim.call_at(0.2, lambda: cluster.crash(0))
    traffic(cluster, keys, 12, 0.3, ddl=True)
    cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0))
    traffic(cluster, keys, 6, 2.0)
    settle(cluster)
    assert cluster.replicas[0].recovery_stats["checkpoint"] is False
    return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])


def delta_with_checkpoint():
    cluster, keys = make_cluster(12, durability=truncating("aggressive"))
    cluster.sim.call_at(0.2, lambda: cluster.crash(0))
    traffic(cluster, keys, 30, 0.3, ddl=True)
    cluster.sim.call_at(4.0, lambda: cluster.recover_replica(0))
    traffic(cluster, keys, 6, 4.5)
    settle(cluster, 8.0)
    assert cluster.replicas[0].recovery_stats["checkpoint"] is True
    return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])


def full_recovery():
    cluster, keys = make_cluster(2)
    cluster.sim.call_at(0.2, lambda: cluster.crash(0))
    traffic(cluster, keys, 12, 0.3, ddl=True)
    cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
    traffic(cluster, keys, 6, 1.5)
    settle(cluster)
    assert cluster.replicas[0].recovery_stats["mode"] == "full"
    return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])


def elastic_join(durable):
    cluster, keys = make_cluster(21, durable=durable)
    traffic(cluster, keys, 12, 0.1, ddl=True)
    cluster.sim.call_at(0.5, lambda: cluster.add_replica())
    traffic(cluster, keys, 6, 1.0)
    settle(cluster)
    return cluster, [cluster.replicas[3]], engine_state(cluster.replicas[1])


def cold_restart(durability, read_replicas=0):
    store = DurabilityStore(durability)
    cluster, keys = make_cluster(31, store=store, read_replicas=read_replicas)
    traffic(cluster, keys, 30, 0.1, ddl=True)
    settle(cluster, 3.0)
    reference = engine_state(cluster.replicas[1])
    cluster.stop()
    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=3, seed=32, durable=True,
                      read_replicas=read_replicas),
        store,
    )
    return restarted, [*restarted.replicas, *restarted.readers], reference


def reader_join(durable):
    cluster, keys = make_cluster(13, durable=durable)
    traffic(cluster, keys, 12, 0.1, ddl=True)
    settle(cluster, 1.0)
    cluster.add_reader()
    traffic(cluster, keys, 6, 0.1)
    settle(cluster)
    return cluster, cluster.readers, engine_state(cluster.replicas[1])


PATHS = {
    "delta-recovery": delta_recovery,
    "delta-checkpoint": delta_with_checkpoint,
    "full-recovery": full_recovery,
    "elastic-join-durable": lambda: elastic_join(True),
    "elastic-join": lambda: elastic_join(False),
    "cold-restart": lambda: cold_restart(DurabilityConfig()),
    "cold-restart-truncated": lambda: cold_restart(truncating()),
    "reader-join-log": lambda: reader_join(True),
    "reader-join-snapshot": lambda: reader_join(False),
    "cold-restart-reader": lambda: cold_restart(DurabilityConfig(), 1),
    "cold-restart-truncated-reader": lambda: cold_restart(truncating(), 1),
}


@pytest.mark.parametrize("path", PATHS.values(), ids=PATHS.keys())
def test_every_install_path_ends_in_the_same_state(path):
    cluster, joiners, reference = path()
    rows, ddl, csn = reference
    assert EXTRA_DDL in ddl and csn > 0
    for node in joiners:
        assert engine_state(node) == reference, node.name
        if node in cluster.readers:
            assert node.watermark == csn
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]


# -- regression: a full-state joiner's csn --------------------------------------


def token_read_answered(cluster, replica, token) -> bool:
    """Send a session-token read over a raw channel; True iff answered."""
    sim = cluster.sim
    replies = []

    def probe():
        channel = cluster.network.connect(
            cluster.new_client_host(), replica.host.address
        )
        channel.client_end.send(protocol.ExecuteReq(
            1, "SELECT v FROM kv WHERE k = 1", min_csn=token
        ))
        replies.append((yield from channel.client_end.recv()))

    sim.spawn(probe(), name="token-read")
    sim.run(until=sim.now + 2.0)
    return bool(replies) and replies[0].ok


@pytest.mark.parametrize("how", ["add_replica", "recover_full"])
def test_full_state_joiner_csn_counts_certified_commits(how):
    cluster, keys = make_cluster(23)
    traffic(cluster, keys, 20, 0.1, spacing=0.02)
    if how == "add_replica":
        cluster.sim.call_at(1.5, lambda: cluster.add_replica())
        index = 3
    else:
        cluster.sim.call_at(0.05, lambda: cluster.crash(0))
        cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
        index = 0
    traffic(cluster, keys, 5, 2.0)
    settle(cluster)
    joiner = cluster.replicas[index]
    assert joiner.recovery_stats["mode"] == "full"
    tip = cluster.replicas[1].certifier.last_validated_tid
    assert {r.db.csn for r in cluster.alive_replicas()} == {tip}
    assert token_read_answered(cluster, joiner, tip)


# -- regression: cold restart with readers after truncation ---------------------


def test_cold_restart_with_reader_after_log_truncation():
    store = DurabilityStore(truncating())
    cluster, keys = make_cluster(11, store=store, read_replicas=1)
    traffic(cluster, keys, 30, 0.1)
    settle(cluster, 3.0)
    assert min(r.wslog.start_seq for r in cluster.replicas) > 1  # truncated
    cluster.stop()
    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=3, seed=11, durable=True, read_replicas=1),
        store,
    )
    (reader,) = restarted.readers
    expected = restarted.replicas[0].db.export_committed()
    assert reader.db.export_committed() == expected
    assert reader.watermark == restarted.replicas[0].db.csn
