"""Elastic joins and the consistency guarantees: Def. 3 audit and the
online 1-copy-SI monitor with read replicas in the loop."""

from repro.client import Driver, RoutedDriver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable.store import DurabilityConfig
from repro.reader import ReaderConfig
from repro.testing import query


def make_cluster(**kwargs):
    kwargs.setdefault("n_replicas", 3)
    kwargs.setdefault("seed", 13)
    cluster = SIRepCluster(ClusterConfig(**kwargs))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    return cluster


def run_updates(cluster, n=8, offset=0):
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(n):
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?",
                (offset + i + 1, (i % 4) + 1),
            )
            yield from conn.commit()
        conn.close()

    sim.run_process(client())
    sim.run()


def test_audit_includes_caught_up_readers():
    cluster = make_cluster(read_replicas=2)
    run_updates(cluster, n=10)
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]
    for reader in cluster.readers:
        assert reader.watermark == cluster.replicas[0].node.db.csn


def test_durable_join_replays_log_and_stays_auditable():
    cluster = make_cluster(
        read_replicas=0,
        durability=DurabilityConfig(),
    )
    run_updates(cluster, n=6)
    reader = cluster.add_reader()
    assert reader.audit_complete  # real replayable transactions
    assert reader.watermark == cluster.replicas[0].node.db.csn
    assert len(reader.replayed) == 6
    run_updates(cluster, n=6, offset=6)
    assert reader.applied == 6  # live suffix via the feed, no overlap
    rows = query(cluster.sim, reader.db, "SELECT k, v FROM kv ORDER BY k")
    expected = query(
        cluster.sim, cluster.replicas[0].node.db, "SELECT k, v FROM kv ORDER BY k"
    )
    assert rows == expected
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]


def test_snapshot_join_serves_but_skips_offline_audit():
    cluster = make_cluster(read_replicas=0)
    run_updates(cluster, n=6)
    reader = cluster.add_reader()
    assert not reader.audit_complete  # row images are not replayable
    assert len(reader.covered_gids) == 6
    run_updates(cluster, n=6, offset=6)
    rows = query(cluster.sim, reader.db, "SELECT k, v FROM kv ORDER BY k")
    expected = query(
        cluster.sim, cluster.replicas[0].node.db, "SELECT k, v FROM kv ORDER BY k"
    )
    assert rows == expected
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]


def test_monitor_covers_readers_under_load():
    cluster = make_cluster(read_replicas=2, monitor=True)
    sim = cluster.sim
    run_updates(cluster, n=10)
    sim.run(until=sim.now + 2.0)
    assert cluster.monitor.ok, [str(v) for v in cluster.monitor.poll()]
    watched = cluster.monitor.summary()["watched"]
    assert "Rr0" in watched and "Rr1" in watched


def test_monitor_flags_broken_staleness_bound():
    """Negative test: a reader whose apply loop is wedged is caught by
    the online monitor as lost writesets once they are missing for
    longer than the monitor's ``loss_grace``."""
    cluster = make_cluster(
        read_replicas=1,
        monitor=True,
        reader=ReaderConfig(apply_delay=60.0),
    )
    sim = cluster.sim
    run_updates(cluster, n=4)
    sim.run(until=sim.now + cluster.monitor.loss_grace + 1.0)
    assert not cluster.monitor.ok
    lost = [v for v in cluster.monitor.violations if v.kind == "lost-writeset"]
    assert lost and any("Rr0" in str(v) for v in lost)
    # the voting replicas themselves are fine: only the reader is flagged
    assert all("Rr0" in str(v) for v in lost)


def test_monitor_quiet_when_reader_merely_lags_within_grace():
    """Positive control for the negative test: same lag, default grace —
    nothing is flagged while the reader is still within its promise."""
    cluster = make_cluster(
        read_replicas=1,
        monitor=True,
        reader=ReaderConfig(apply_delay=0.05),
    )
    sim = cluster.sim
    run_updates(cluster, n=4)
    sim.run(until=sim.now + 2.0)
    assert cluster.monitor.ok, [str(v) for v in cluster.monitor.poll()]
    assert cluster.readers[0].watermark == 4


def test_departed_reader_leaves_monitor_and_audit():
    cluster = make_cluster(read_replicas=2, monitor=True)
    run_updates(cluster, n=4)
    cluster.remove_reader(0)
    run_updates(cluster, n=4, offset=4)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert "Rr0" not in cluster.monitor.summary()["watched"]
    assert cluster.monitor.ok, [str(v) for v in cluster.monitor.poll()]
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]


def test_discovery_churn_does_not_disturb_write_path():
    """Readers joining and leaving mid-run must not perturb the voting
    membership view: update traffic keeps committing, failover case
    analysis still sees exactly the full replicas."""
    cluster = make_cluster(read_replicas=1, monitor=True)
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)
    committed = [0]

    def writer():
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(20):
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (i, (i % 4) + 1)
            )
            yield from conn.commit()
            committed[0] += 1
            yield sim.sleep(0.02)
        conn.close()

    sim.spawn(writer(), name="writer")
    sim.call_at(0.1, lambda: cluster.add_reader())
    sim.call_at(0.2, lambda: cluster.crash_reader(0))
    sim.call_at(0.3, lambda: cluster.add_reader())
    sim.run()
    assert committed[0] == 20
    # the write-path discovery answer is exactly the voting replicas
    addresses = sim.run_process(cluster.discovery.discover())
    assert sorted(addresses) == ["R0", "R1", "R2"]
    assert len(cluster.alive_readers()) == 2
    for reader in cluster.alive_readers():
        assert reader.watermark == 20
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]
    assert cluster.monitor.ok, [str(v) for v in cluster.monitor.poll()]
