"""The replica status record, pinned.

``SIRepCluster`` reads a replica only through
``MiddlewareReplica.status()``: the per-replica ``metrics()`` section, the
sampler's gauges and the audit membership are all built from it.  The
key sets and gauge names are listed here, so adding, renaming or dropping
one is a deliberate edit of this file, and the ``recovered`` flag and the
audited set are written out for every install path.
"""

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core import report as report_module
from repro.core.cluster import build_surface
from repro.core.protocol import ReplicaStatus
from repro.core.srca_rep import MiddlewareReplica
from repro.durable import DurabilityConfig, DurabilityStore

REPLICA_KEYS = [
    "alive", "recovered", "active_sessions", "update_commits",
    "readonly_commits", "certification_aborts", "salvaged", "salvage_rejects",
    "certifier_window", "certifier_gc_floor", "certifier_gc_collected",
    "certifier_floor_aborts", "tocommit_queue_len", "tocommit_appended",
    "tocommit_batches", "remote_apply_retries", "group_commit_flushes",
    "group_commit_mean_size", "hole_wait_fraction", "db_commits", "db_aborts",
    "db_versions", "cpu_utilization",
]
LOG_KEYS = [
    "log_tip_seq", "log_durable_seq", "log_depth", "log_bytes", "log_flushes",
    "log_fsyncs", "log_file_opens", "checkpoints",
]
REPLICA_GAUGES = [
    "tocommit_depth", "holes", "oldest_hole_age", "active_sessions",
    "cpu_utilization", "certifier_window", "certifier_gc_floor",
    "certifier_gc_collected", "group_commit_mean_size",
]
LOG_GAUGES = ["log_depth", "log_durable_seq", "log_tail"]


def build(durable=False, store=None, n=3, **kwargs):
    cfg = ClusterConfig(
        n_replicas=n, seed=3,
        durability=DurabilityConfig() if durable else None, **kwargs,
    )
    cluster = SIRepCluster(cfg, surface=build_surface(cfg, store))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 6)])
    return cluster


def write(cluster, key, value, address="R1"):
    driver = Driver(cluster.network, cluster.discovery)

    def proc():
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
        yield from conn.commit()

    cluster.sim.run_process(proc())
    settle(cluster)


def settle(cluster, seconds=1.0):
    cluster.sim.run(until=cluster.sim.now + seconds)


def crash_write_recover(cluster, index=0, **recover):
    cluster.crash(index)
    write(cluster, 1, 11)
    cluster.recover_replica(index, **recover)
    settle(cluster, 2.0)


def membership(cluster, monkeypatch):
    """(the recovered flag per replica, the set the audit reads)."""
    audited = set()

    class Spy(report_module.KeyedAudit):
        def watch(self, name, *args, **kwargs):
            audited.add(name)
            return super().watch(name, *args, **kwargs)

    monkeypatch.setattr(report_module, "KeyedAudit", Spy)
    assert cluster.one_copy_report().ok
    flags = {
        name: row["recovered"] for name, row in cluster.metrics()["replicas"].items()
    }
    return flags, audited


# ------------------------------------------------------------- the surface


def test_per_replica_metrics_keys_are_pinned():
    plain = build()
    assert list(plain.metrics()["replicas"]["R0"]) == REPLICA_KEYS

    durable = build(durable=True)
    assert list(durable.metrics()["replicas"]["R0"]) == REPLICA_KEYS + LOG_KEYS

    crash_write_recover(durable)
    row = durable.metrics()["replicas"]["R0"]
    assert list(row) == REPLICA_KEYS + LOG_KEYS + ["recovery"]
    assert row["recovery"]["mode"] == "delta"


def test_per_replica_gauge_names_are_pinned():
    for durable, expected in ((False, REPLICA_GAUGES), (True, REPLICA_GAUGES + LOG_GAUGES)):
        cluster = build(durable=durable, obs=True)
        names = [g for g in cluster.obs.registry.gauges if g.startswith("R1.")]
        assert names == [f"R1.{gauge}" for gauge in expected]


@pytest.mark.parametrize("obs", [True, False], ids=["gauges", "no-gauges"])
def test_one_status_record_per_replica_per_probe_and_per_metrics_call(monkeypatch, obs):
    cluster = build(durable=True, obs=obs)
    write(cluster, 1, 5)
    calls = []
    status = MiddlewareReplica.status

    def counted(replica):
        calls.append(replica.name)
        return status(replica)

    monkeypatch.setattr(MiddlewareReplica, "status", counted)
    if obs:
        sample = cluster.obs.registry.read_gauges()
        assert sorted(calls) == ["R0", "R1", "R2"]
        assert sample["R1.log_tail"] == 0 and sample["R1.log_durable_seq"] > 0
        calls.clear()
    # the gauge probe metrics() embeds shares its records
    assert ("obs" in cluster.metrics()) == obs
    assert sorted(calls) == ["R0", "R1", "R2"]


def test_per_replica_metrics_are_the_record_by_name():
    cluster = build(durable=True, obs=True, group_commit=True, with_disk=True)
    write(cluster, 1, 5)
    crash_write_recover(cluster, index=2)
    for replica in cluster.replicas:
        row = cluster.metrics()["replicas"][replica.name]
        status = replica.status()
        for key, value in row.items():
            if key != "db_versions":
                assert value == getattr(status, key), key
        assert row["db_versions"] == replica.db.version_count()


#: every record field and where the replica keeps it
SOURCES = {
    "alive": lambda r: r.alive,
    "recovered": lambda r: not r.recovery.audit_complete or not r.recovery.installed,
    "installed": lambda r: r.recovery.installed,
    "active_sessions": lambda r: r.active_sessions,
    "update_commits": lambda r: r.local.commits,
    "readonly_commits": lambda r: r.local.readonly_commits,
    "certification_aborts": lambda r: r.local.aborts,
    "salvaged": lambda r: r.validation.certifier.salvaged,
    "salvage_rejects": lambda r: r.validation.certifier.salvage_rejects,
    "certifier_window": lambda r: r.validation.certifier.window_size,
    "certifier_gc_floor": lambda r: r.validation.certifier.floor,
    "certifier_gc_collected": lambda r: r.validation.certifier.gc_collected,
    "certifier_floor_aborts": lambda r: r.validation.certifier.floor_aborts,
    "tocommit_queue_len": lambda r: len(r.manager.queue),
    "tocommit_appended": lambda r: r.manager.queue.appended_total,
    "tocommit_batches": lambda r: r.manager.queue.appended_batches,
    "remote_apply_retries": lambda r: r.manager.remote_apply_retries,
    "group_commit_flushes": lambda r: r.manager.group_log.flushes,
    "group_commit_mean_size": lambda r: r.manager.group_log.mean_group_size,
    "hole_wait_fraction": lambda r: r.manager.holes.hole_wait_fraction,
    "db_commits": lambda r: r.db.commits,
    "db_aborts": lambda r: r.db.aborts,
    "cpu_utilization": lambda r: r.node.cpu.utilization(),
    "recovery": lambda r: r.recovery.stats,
    "certifier_decisions": lambda r: r.validation.certifier.decisions,
    "certifier_rejected": lambda r: r.validation.certifier.rejected,
    "oldest_hole_age": lambda r: r.manager.holes.oldest_hole_age(r.sim.now),
    "holes": lambda r: r.manager.holes.hole_count(),
    "hole_start_attempts": lambda r: r.manager.holes.start_attempts,
    "hole_start_waits": lambda r: r.manager.holes.start_waits,
    "group_commit_synced": lambda r: r.manager.group_log.synced_entries,
    "deferred_ww": lambda r: r.db.deferred_ww,
    "feed_seq": lambda r: r.validation.feed_seq,
    "log_tip_seq": lambda r: r.wslog.tip_seq,
    "log_durable_seq": lambda r: r.wslog.durable_seq,
    "log_depth": lambda r: r.wslog.retained_records,
    "log_bytes": lambda r: r.wslog.durable_bytes,
    "log_flushes": lambda r: r.wslog.flushes,
    "log_fsyncs": lambda r: r.wslog.fsyncs,
    "log_file_opens": lambda r: r.wslog.opens,
    "checkpoints": lambda r: r.log.checkpoints.saved,
    "can_replay": lambda r: r.log.can_replay(),
    "checkpoints_unreadable": lambda r: tuple(map(str, r.log.checkpoints.unreadable)),
}


def test_every_field_reads_its_source():
    assert list(SOURCES) == list(ReplicaStatus._fields)
    cluster = build(durable=True, group_commit=True, with_disk=True)
    for i in range(4):
        write(cluster, 1 + i, 7 + i)
    crash_write_recover(cluster, index=1)
    cluster.replicas[0].log.take_checkpoint()
    for replica in cluster.replicas:
        status = replica.status()
        for field, source in SOURCES.items():
            assert getattr(status, field) == source(replica), (replica.name, field)


def test_a_replica_that_does_not_log_has_no_log_fields():
    status = build().replicas[0].status()
    assert status.feed_seq == 0 and status.recovery == {}
    assert {field: getattr(status, field) for field in ReplicaStatus._fields[-10:]} == (
        dict.fromkeys(ReplicaStatus._fields[-10:])
    )


# --------------------------------------- audit membership per install path


def test_fresh(monkeypatch):
    cluster = build()
    assert membership(cluster, monkeypatch) == (
        {"R0": False, "R1": False, "R2": False}, {"R0", "R1", "R2"},
    )


def test_a_recovery_not_yet_installed(monkeypatch):
    cluster = build(durable=True)
    cluster.crash(0)
    cluster.recover_replica(0)
    assert membership(cluster, monkeypatch) == (
        {"R0": True, "R1": False, "R2": False}, {"R1", "R2"},
    )


def test_delta_recovery(monkeypatch):
    cluster = build(durable=True)
    crash_write_recover(cluster)
    assert cluster.replicas[0].recovery.stats["mode"] == "delta"
    assert membership(cluster, monkeypatch) == (
        {"R0": False, "R1": False, "R2": False}, {"R0", "R1", "R2"},
    )


def test_full_recovery(monkeypatch):
    cluster = build()
    crash_write_recover(cluster)
    assert cluster.replicas[0].recovery.stats["mode"] == "full"
    assert membership(cluster, monkeypatch) == (
        {"R0": True, "R1": False, "R2": False}, {"R1", "R2"},
    )


@pytest.mark.parametrize(
    "durable, mode, flags, audited",
    [
        (True, "delta", {"R0": False, "R1": False, "R2": False, "R3": False},
         {"R0", "R1", "R2", "R3"}),
        (False, "full", {"R0": False, "R1": False, "R2": False, "R3": True},
         {"R0", "R1", "R2"}),
    ],
    ids=["durable", "not-durable"],
)
def test_elastic_join(monkeypatch, durable, mode, flags, audited):
    cluster = build(durable=durable)
    write(cluster, 1, 11)
    cluster.add_replica()
    settle(cluster, 2.0)
    assert cluster.replicas[3].recovery.stats["mode"] == mode
    assert membership(cluster, monkeypatch) == (flags, audited)


@pytest.mark.parametrize(
    "durable, audited",
    [(False, {"R0", "R1", "R2"}), (True, {"R0", "R1", "R2", "Rr0"})],
    ids=["snapshot", "log"],
)
def test_reader_join(monkeypatch, durable, audited):
    cluster = build(durable=durable)
    write(cluster, 1, 11)
    cluster.add_reader()
    settle(cluster)
    assert membership(cluster, monkeypatch) == (
        {"R0": False, "R1": False, "R2": False}, audited,
    )


@pytest.mark.parametrize(
    "checkpointed, flags, audited",
    [
        ((), {"R0": False, "R1": False, "R2": False}, {"R0", "R1", "R2"}),
        ((0,), {"R0": True, "R1": False, "R2": False}, {"R1", "R2"}),
    ],
    ids=["log-only", "checkpoint"],
)
def test_cold_restart(monkeypatch, checkpointed, flags, audited):
    store = DurabilityStore(DurabilityConfig())
    cluster = build(store=store)
    write(cluster, 1, 11)
    for index in checkpointed:
        cluster.replicas[index].log.take_checkpoint()
    write(cluster, 2, 22)
    cluster.stop()
    restarted = SIRepCluster.cold_restart(ClusterConfig(n_replicas=3, seed=4), store)
    assert membership(restarted, monkeypatch) == (flags, audited)
