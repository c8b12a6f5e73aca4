"""Durability subsystem end-to-end: delta catch-up recovery, the
stability watermark racing slow rejoiners, elastic join, cold restart.

The recurring assertions: after any recovery path the replicas hold
identical data, the offline Definition-3 audit passes (delta-recovered
replicas *included* — their whole history is replayable transactions),
and the online monitor re-watches the rejoiner.
"""

import json
from dataclasses import replace

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster, membership
from repro.core.cluster import build_surface
from repro.durable import DurabilityConfig, DurabilityStore, StabilityTracker
from repro.durable.watermark import AGGRESSIVE
from repro.errors import ReproError
from repro.testing import query


def make_cluster(n=3, seed=1, durability=None, store=None, **cfg_kwargs):
    cfg = ClusterConfig(
        n_replicas=n,
        seed=seed,
        durability=durability or DurabilityConfig(),
        monitor=True,
        **cfg_kwargs,
    )
    cluster = SIRepCluster(cfg, surface=build_surface(cfg, store))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 6)])
    return cluster, Driver(cluster.network, cluster.discovery)


def settle(cluster, seconds=5.0):
    cluster.sim.run()
    cluster.sim.run(until=cluster.sim.now + seconds)


def spawn_writer(cluster, driver, key, value, delay, address="R1"):
    sim = cluster.sim

    def proc():
        yield sim.sleep(delay)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
        yield from conn.commit()

    sim.spawn(proc(), name=f"w{key}-{value}")


def all_states(cluster):
    return {
        replica.name: tuple(
            (r["k"], r["v"])
            for r in query(
                cluster.sim, replica.node.db, "SELECT k, v FROM kv ORDER BY k"
            )
        )
        for replica in cluster.alive_replicas()
    }


def assert_consistent_and_audited(cluster, expect_n):
    states = all_states(cluster)
    assert len(states) == expect_n
    assert len(set(states.values())) == 1
    assert cluster.one_copy_report().ok


# ------------------------------------------------------------------ delta


def test_delta_recovery_ships_only_the_missed_tail():
    cluster, driver = make_cluster()
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(0))
    spawn_writer(cluster, driver, 1, 11, 0.5)
    spawn_writer(cluster, driver, 2, 22, 0.7)
    sim.call_at(1.5, lambda: cluster.recover_replica(0))
    spawn_writer(cluster, driver, 3, 33, 2.5)
    settle(cluster)

    recovered = cluster.replicas[0]
    stats = recovered.recovery.stats
    assert stats["mode"] == "delta"
    assert stats["checkpoint"] is False
    # exactly the two writesets certified while R0 was down
    assert stats["records"] == 2
    assert stats["from_seq"] == 2  # its durable tip: the genesis records
    # delta recovery keeps the history replayable: back in the audit...
    assert recovered.recovery.audit_complete
    assert not cluster.metrics()["replicas"]["R0"]["recovered"]
    assert_consistent_and_audited(cluster, expect_n=3)
    # ...and re-watched by the online monitor
    assert "R0" in cluster.monitor.summary()["watched"]
    assert not cluster.monitor.summary()["tripped"]


def test_full_mode_still_available_on_a_durable_cluster():
    cluster, driver = make_cluster()
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(0))
    spawn_writer(cluster, driver, 1, 11, 0.5)
    sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
    settle(cluster)

    recovered = cluster.replicas[0]
    assert recovered.recovery.installed
    assert recovered.recovery.stats["mode"] == "full"
    # row images are not replayable transactions: stays out of the audit
    assert not recovered.recovery.audit_complete
    assert cluster.metrics()["replicas"]["R0"]["recovered"]
    states = all_states(cluster)
    assert len(set(states.values())) == 1
    assert cluster.one_copy_report().ok  # over the continuously-alive pair
    # the rebased log stays seq-aligned for writesets certified later
    spawn_writer(cluster, driver, 2, 22, 0.1)
    settle(cluster, 3.0)
    assert recovered.wslog.tip_seq > recovered.wslog.rebased_at
    assert len(set(all_states(cluster).values())) == 1


def test_donor_choice_prefers_highest_durable_log():
    cluster, driver = make_cluster(n=3)
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(0))
    spawn_writer(cluster, driver, 1, 11, 0.5)
    settle(cluster, 2.0)
    # hold back R1's durable progress artificially: the picker must
    # then choose R2 even though R1 has the lower index
    cluster.replicas[1].wslog.durable_seq -= 1
    assert membership.pick_donor(cluster, exclude=0) == 2
    cluster.replicas[1].wslog.durable_seq += 1
    assert membership.pick_donor(cluster, exclude=0) == 1  # tie -> lowest index


def test_donor_crash_mid_delta_retargets_without_losing_log_position():
    cluster, driver = make_cluster(n=4, seed=8)
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(0))
    spawn_writer(cluster, driver, 1, 11, 0.5, address="R2")
    from_seq_seen = []
    sim.call_at(
        1.0,
        lambda: from_seq_seen.append(
            cluster.recover_replica(0, donor_index=1).wslog.tip_seq
        ),
    )
    # the chosen donor dies during the handshake
    sim.call_at(1.0005, lambda: cluster.crash(1))
    spawn_writer(cluster, driver, 2, 22, 3.0, address="R2")
    settle(cluster, 8.0)

    recovered = cluster.replicas[0]
    assert recovered.recovery.installed
    stats = recovered.recovery.stats
    assert stats["mode"] == "delta"
    assert stats["donor"] in ("R2", "R3")  # re-targeted to a survivor
    # the retarget reused the original durable position: no restart from 0
    assert stats["from_seq"] == from_seq_seen[0]
    assert_consistent_and_audited(cluster, expect_n=3)
    assert "R0" in cluster.monitor.summary()["watched"]


@pytest.mark.parametrize("donor_crash", [1.0, 1.0005, 1.001])
def test_concurrent_delta_recoveries_never_retarget_to_each_other(donor_crash):
    """Regression: two delta recoveries whose donor crashed retargeted to
    each other (neither holds an installed state) and waited forever;
    both now retarget to the survivor and keep their log positions."""
    cluster, driver = make_cluster(n=4, seed=8)
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(1))
    sim.call_at(0.3, lambda: cluster.crash(2))
    spawn_writer(cluster, driver, 1, 11, 0.5, address="R3")
    sim.call_at(1.0, lambda: cluster.recover_replica(1, donor_index=0))
    sim.call_at(1.0, lambda: cluster.recover_replica(2, donor_index=0))
    sim.call_at(donor_crash, lambda: cluster.crash(0))
    spawn_writer(cluster, driver, 2, 22, 3.0, address="R3")
    settle(cluster, 8.0)

    for recovered in cluster.replicas[1:3]:
        assert recovered.status().installed
        assert recovered.recovery.stats["mode"] == "delta"
        assert recovered.recovery.stats["donor"] == "R3"
    assert_consistent_and_audited(cluster, expect_n=3)
    assert all_states(cluster)["R1"][:2] == ((1, 11), (2, 22))


# ------------------------------------------------- truncation vs rejoiners


def churn(cluster, driver, n, start_delay=0.3, spacing=0.05, address="R1"):
    for i in range(n):
        spawn_writer(
            cluster, driver, 1 + i % 5, 100 + i,
            start_delay + i * spacing, address=address,
        )


def test_conservative_watermark_pins_segments_for_the_rejoiner():
    """A crashed member's last ack holds the watermark, so its delta
    range survives GC no matter how long it stays down."""
    durability = DurabilityConfig(checkpoint_interval=0.4, segment_records=4)
    cluster, driver = make_cluster(seed=11, durability=durability)
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(0))
    churn(cluster, driver, 30)
    sim.call_at(4.0, lambda: cluster.recover_replica(0))
    settle(cluster, 8.0)

    recovered = cluster.replicas[0]
    stats = recovered.recovery.stats
    assert stats["mode"] == "delta"
    # the donor could still serve the full range: pure log delta, no
    # checkpoint fallback, so the rejoiner stays audit-complete
    assert stats["checkpoint"] is False
    assert stats["records"] == 30
    assert recovered.recovery.audit_complete
    assert_consistent_and_audited(cluster, expect_n=3)
    assert "R0" in cluster.monitor.summary()["watched"]


def test_aggressive_truncation_falls_back_to_donor_checkpoint(monkeypatch):
    """Under the aggressive policy survivors GC past the crashed member;
    the donor then serves its newest checkpoint plus the log above it."""
    monkeypatch.setattr(StabilityTracker, "policy", AGGRESSIVE)
    durability = DurabilityConfig(checkpoint_interval=0.4, segment_records=4)
    cluster, driver = make_cluster(seed=12, durability=durability)
    sim = cluster.sim
    sim.call_at(0.2, lambda: cluster.crash(0))
    churn(cluster, driver, 30)
    sim.call_at(4.0, lambda: cluster.recover_replica(0))
    settle(cluster, 8.0)

    donor_log = cluster.replicas[1].wslog
    assert donor_log.truncated_records > 0  # GC actually ran past R0
    recovered = cluster.replicas[0]
    stats = recovered.recovery.stats
    assert stats["mode"] == "delta"
    assert stats["checkpoint"] is True  # log alone couldn't serve it
    assert recovered.recovery.installed
    states = all_states(cluster)
    assert len(set(states.values())) == 1
    # checkpoint rows are images, not transactions: out of the audit,
    # but the continuously-alive replicas still pass
    assert not recovered.recovery.audit_complete
    assert cluster.one_copy_report().ok


def test_truncation_never_cuts_below_own_checkpoint():
    cluster, driver = make_cluster(
        seed=13,
        durability=DurabilityConfig(segment_records=2),
    )
    churn(cluster, driver, 12, start_delay=0.1)
    settle(cluster, 3.0)
    replica = cluster.replicas[0]
    # no checkpoint taken yet -> nothing may be truncated, because the
    # log is the only thing a cold restart could replay
    log = replica.log
    assert log.checkpoints.latest() is None
    assert replica.wslog.truncated_records == 0
    assert replica.wslog.start_seq == 1
    # once a checkpoint exists the sweep may GC up to it
    log.take_checkpoint()
    dropped = log.truncate()
    assert dropped > 0
    assert replica.wslog.start_seq <= log.checkpoints.latest().seq + 1


# ------------------------------------------------------------ elastic join


def test_elastic_join_under_live_traffic():
    cluster, driver = make_cluster(seed=21)
    sim = cluster.sim
    churn(cluster, driver, 20, start_delay=0.1)
    sim.call_at(0.5, lambda: cluster.add_replica())
    settle(cluster)

    joined = cluster.replicas[3]
    assert joined.name == "R3"
    assert joined.recovery.installed
    assert joined.recovery.stats["mode"] == "delta"
    assert_consistent_and_audited(cluster, expect_n=4)
    assert "R3" in cluster.monitor.summary()["watched"]
    # the new member participates in the watermark
    assert "R3" in cluster.stability.acks


def test_joined_replica_serves_reads_and_writes():
    cluster, driver = make_cluster(seed=22)
    sim = cluster.sim
    spawn_writer(cluster, driver, 1, 11, 0.1)
    sim.call_at(0.5, lambda: cluster.add_replica())
    results = []

    def late_client():
        yield sim.sleep(2.0)
        conn = yield from driver.connect(cluster.new_client_host(), address="R3")
        got = yield from conn.execute("SELECT v FROM kv WHERE k = 1")
        yield from conn.execute("UPDATE kv SET v = 2 WHERE k = 2")
        yield from conn.commit()
        results.append(got.rows)

    sim.spawn(late_client(), name="late")
    settle(cluster)
    assert results == [[{"v": 11}]]
    assert_consistent_and_audited(cluster, expect_n=4)


def test_elastic_join_without_durability_uses_full_transfer():
    cfg = ClusterConfig(n_replicas=3, seed=23)
    cluster = SIRepCluster(cfg)
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 7}])
    cluster.sim.call_at(0.2, lambda: cluster.add_replica())
    settle(cluster, 3.0)
    joined = cluster.replicas[3]
    assert joined.recovery.installed
    assert joined.recovery.stats["mode"] == "full"
    driver = Driver(cluster.network, cluster.discovery)
    spawn_writer(cluster, driver, 1, 42, 0.1, address="R3")
    settle(cluster, 3.0)
    assert len(set(all_states(cluster).values())) == 1


# ------------------------------------------------------------ cold restart


def run_traffic_then_stop(store, seed=31, writes=8):
    cluster, driver = make_cluster(seed=seed, store=store)
    churn(cluster, driver, writes, start_delay=0.1)
    settle(cluster, 3.0)
    expected = all_states(cluster)["R1"]
    tips = [r.wslog.tip_seq for r in cluster.replicas]
    cluster.stop()
    return expected, tips


def test_cold_restart_from_memory_store():
    store = DurabilityStore(DurabilityConfig())
    expected, tips = run_traffic_then_stop(store)
    assert tips[0] > 2  # traffic actually reached the logs

    cfg = ClusterConfig(n_replicas=3, seed=32, monitor=True)
    cluster = SIRepCluster.cold_restart(cfg, store)
    states = all_states(cluster)
    assert len(states) == 3
    assert set(states.values()) == {expected}
    # recovered-from-log replicas are audited (whole history replayable)
    assert cluster.one_copy_report().ok
    assert sorted(cluster.monitor.summary()["watched"]) == ["R0", "R1", "R2"]
    # and the cluster keeps working: new traffic, still 1-copy-SI
    driver = Driver(cluster.network, cluster.discovery)
    spawn_writer(cluster, driver, 1, 777, 0.1, address="R0")
    settle(cluster, 3.0)
    assert len(set(all_states(cluster).values())) == 1
    assert cluster.one_copy_report().ok
    assert not cluster.monitor.summary()["tripped"]


def test_cold_restart_from_disk(tmp_path):
    config = DurabilityConfig(log_dir=tmp_path / "wal")
    store = DurabilityStore(config)
    expected, _tips = run_traffic_then_stop(store, seed=33)
    del store  # everything below must come from the files

    fresh_store = DurabilityStore(DurabilityConfig(log_dir=tmp_path / "wal"))
    assert fresh_store.names() == ["R0", "R1", "R2"]
    cfg = ClusterConfig(n_replicas=3, seed=34, monitor=True)
    cluster = SIRepCluster.cold_restart(cfg, fresh_store)
    states = all_states(cluster)
    assert set(states.values()) == {expected}
    assert cluster.one_copy_report().ok
    assert sorted(cluster.monitor.summary()["watched"]) == ["R0", "R1", "R2"]


def test_cold_restart_levels_a_replica_with_a_shorter_log():
    store = DurabilityStore(DurabilityConfig())
    cluster, driver = make_cluster(seed=35, store=store)
    churn(cluster, driver, 6, start_delay=0.1)
    settle(cluster, 3.0)
    expected = all_states(cluster)["R1"]
    # simulate R2 dying with unflushed records: shorter durable log
    cluster.replicas[2].wslog.drop_tail()
    dropped = store.replica("R2").log
    store.replica("R2").log.truncate_to(0)  # no-op, keep object identity
    assert dropped.tip_seq <= store.replica("R0").log.tip_seq
    cluster.stop()
    # artificially shorten R2's durable log to force catch-up leveling
    r2_log = store.replica("R2").log
    if r2_log.segments and len(r2_log.segments[-1].records) > 1:
        segment = r2_log.segments[-1]
        removed = segment.records.pop()
        segment.count -= 1
        segment.last_seq = removed.seq - 1
        r2_log.durable_seq = r2_log.tip_seq = removed.seq - 1

    cfg = ClusterConfig(n_replicas=3, seed=36)
    cluster2 = SIRepCluster.cold_restart(cfg, store)
    states = all_states(cluster2)
    assert set(states.values()) == {expected}
    tips = {r.wslog.tip_seq for r in cluster2.replicas}
    assert len(tips) == 1  # leveled


def test_cold_restart_watermark_resumes_where_it_left_off():
    store = DurabilityStore(DurabilityConfig())
    _expected, tips = run_traffic_then_stop(store, seed=37)
    cfg = ClusterConfig(n_replicas=3, seed=38)
    cluster = SIRepCluster.cold_restart(cfg, store)
    assert cluster.stability.stable_seq() == min(tips)


def run_updates_on_r0(cluster, values, until):
    """Single-row updates on R0, 0.05 s apart; idle to ``until``, stop."""
    driver = Driver(cluster.network, cluster.discovery)
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        for value in values:
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (value, value % 5))
            yield from conn.commit()
            yield sim.sleep(0.05)

    sim.spawn(client())
    sim.run(until=until)
    cluster.stop()


def truncated_to_nothing(tmp_path):
    """A disk store whose every checkpoint covers its whole log, so each
    sweep after a checkpoint finds every segment stable and sealed."""
    config = DurabilityConfig(
        log_dir=tmp_path / "wal", checkpoint_interval=0.3, segment_records=2
    )
    cfg = ClusterConfig(n_replicas=2, seed=1, durability=config)
    cluster = SIRepCluster(cfg)
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(5)])
    run_updates_on_r0(cluster, range(40), until=4.0)
    return cfg, config


def test_two_cold_restarts_after_a_full_truncation_keep_every_commit(tmp_path):
    cfg, config = truncated_to_nothing(tmp_path)
    cluster = SIRepCluster.cold_restart(cfg, DurabilityStore(config))
    for replica in cluster.replicas:
        # the log resumes where the restored checkpoint ends: 2 genesis
        # records + 40 writesets
        assert replica.wslog.tip_seq == replica.log.applied.top == 42, replica.name
    run_updates_on_r0(cluster, range(100, 105), until=cluster.sim.now + 4.0)

    cluster = SIRepCluster.cold_restart(cfg, DurabilityStore(config))
    assert set(all_states(cluster).values()) == {tuple((k, 100 + k) for k in range(5))}
    cluster.stop()


def test_a_cold_restart_no_replica_can_replay_names_the_unreadable_checkpoints(tmp_path):
    cfg, config = truncated_to_nothing(tmp_path)
    torn = {}
    for name in ("R0", "R1"):
        paths = sorted((tmp_path / "wal" / name / "ckpt").glob("ckpt-*.json"))
        for path in paths:
            path.write_text(path.read_text()[:40])
        torn[name] = [str(path) for path in paths]
    flight_dir = tmp_path / "flight"
    with pytest.raises(ReproError, match="no replica can replay") as raised:
        SIRepCluster.cold_restart(
            replace(cfg, flight=True, flight_dir=str(flight_dir)), DurabilityStore(config)
        )
    for name, paths in torn.items():
        assert f"{name}: {', '.join(paths)}" in str(raised.value)
    dumped = [json.loads(path.read_text())["reason"] for path in sorted(flight_dir.iterdir())]
    assert sorted(dumped) == ["checkpoint-unreadable:R0", "checkpoint-unreadable:R1"]


def logged_gids(replica):
    return [record.gid for record in replica.wslog.records_after(0) if record.gid]


def writes_around_a_recovery_of_r1(cluster, driver, value):
    """Three writes on R1, then R1 crashes and recovers, then three more."""
    sim = cluster.sim
    start = sim.now
    for i in range(3):
        spawn_writer(cluster, driver, 1 + i, value + i, 0.1 + 0.1 * i)
    sim.call_at(start + 0.6, lambda: cluster.crash(1))
    sim.call_at(start + 0.8, lambda: cluster.recover_replica(1))
    for i in range(3):
        spawn_writer(cluster, driver, 1 + i, value + 10 + i, 1.5 + 0.1 * i)
    settle(cluster, 3.0)


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_cold_restart_issues_no_gid_an_earlier_life_certified(tmp_path, on_disk):
    config = DurabilityConfig(log_dir=tmp_path / "wal" if on_disk else None)
    store = DurabilityStore(config)
    cluster, driver = make_cluster(seed=31, store=store)
    writes_around_a_recovery_of_r1(cluster, driver, 100)
    before = logged_gids(cluster.replicas[0])
    old_prefixes = {gid.split(":")[0] for gid in before}
    assert old_prefixes == {"R1", "R1.1"}
    cluster.stop()

    if on_disk:
        store = DurabilityStore(config)
    cfg = ClusterConfig(n_replicas=3, seed=32, monitor=True)
    cluster = SIRepCluster.cold_restart(cfg, store)
    driver = Driver(cluster.network, cluster.discovery)
    writes_around_a_recovery_of_r1(cluster, driver, 200)

    for replica in cluster.alive_replicas():
        gids = logged_gids(replica)
        assert len(gids) == len(set(gids)), replica.name
    new = logged_gids(cluster.replicas[0])[len(before):]
    assert len(new) == 6
    new_prefixes = {gid.split(":")[0] for gid in new}
    assert not new_prefixes & old_prefixes
    # one above the highest incarnation held, then one more per recovery
    assert new_prefixes == {"R1.2", "R1.3"}
    assert cluster.one_copy_report().ok


# ------------------------------------------------------------------ misc


def test_metrics_expose_durability_surface():
    cluster, driver = make_cluster(seed=41, obs=True)
    spawn_writer(cluster, driver, 1, 11, 0.1)
    settle(cluster, 2.0)
    metrics = cluster.metrics()
    assert metrics["stable_watermark"] >= 3
    r0 = metrics["replicas"]["R0"]
    assert r0["log_tip_seq"] == r0["log_durable_seq"] >= 3
    assert r0["log_flushes"] >= 1
    assert r0["log_bytes"] > 0
    gauges = cluster.obs.registry.read_gauges()
    assert gauges["R0.log_durable_seq"] == r0["log_durable_seq"]
    assert "gcs.stable_watermark" in gauges


def test_recover_requires_live_donor_and_crashed_target():
    cluster, _driver = make_cluster(seed=42)
    with pytest.raises(ValueError, match="still alive"):
        cluster.recover_replica(0)
    cluster.crash(0)
    cluster.crash(1)
    with pytest.raises(ValueError, match="not alive"):
        cluster.recover_replica(0, donor_index=1)
    cluster.crash(2)
    with pytest.raises(ValueError, match="no alive donor"):
        cluster.recover_replica(0)


def test_a_full_state_recovery_cold_restarts_at_the_restored_position(tmp_path):
    """A full-state install rebases the log; the rebase position must
    survive on disk even when no record was appended above it, or a cold
    restart places the log at seq 0, below the checkpoint it restores,
    and asks R0 (whose log is truncated) for records it no longer has."""
    config = DurabilityConfig(
        log_dir=tmp_path / "wal", checkpoint_interval=0.3, segment_records=2
    )
    cfg = ClusterConfig(n_replicas=2, seed=1, durability=config)
    cluster = SIRepCluster(cfg)
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(5)])
    cluster.sim.call_at(0.3, lambda: cluster.crash(1))
    cluster.sim.call_at(1.5, lambda: cluster.recover_replica(1, mode="full"))
    run_updates_on_r0(cluster, range(20), until=3.0)
    assert cluster.replicas[1].recovery.stats["mode"] == "full"

    cluster = SIRepCluster.cold_restart(cfg, DurabilityStore(config))
    r1 = cluster.replicas[1]
    assert r1.wslog.tip_seq == r1.log.applied.top == 22
    run_updates_on_r0(cluster, range(100, 103), until=cluster.sim.now + 2.0)
    cluster = SIRepCluster.cold_restart(cfg, DurabilityStore(config))
    assert set(all_states(cluster).values()) == {
        tuple((k, 100 + k if k < 3 else 15 + k) for k in range(5))
    }
    cluster.stop()
