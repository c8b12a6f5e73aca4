"""The obs surface wired through real deployments.

Covers the sampler gauges under a batched + group-commit cluster, the
single shared surface of a sharded deployment, the session-cap
accounting that feeds discovery (§5.4 "replicas that are able to handle
additional workload respond"), and the read-only-monitoring guarantee:
the same seed measures identically with and without the surface.
"""

import json

import pytest

from repro.bench.harness import run_sirep
from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.errors import NoReplicaAvailable
from repro.gcs import GcsConfig
from repro.shard import ShardConfig, ShardedCluster
from repro.workloads.micro import make_mixed_workload

REPLICA_GAUGES = (
    "tocommit_depth",
    "holes",
    "oldest_hole_age",
    "active_sessions",
    "certifier_window",
    "certifier_gc_floor",
    "certifier_gc_collected",
    "group_commit_mean_size",
)


def test_sampler_gauges_under_batched_deployment():
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=11,
            obs=True,
            sampler_interval=0.1,
            group_commit=True,
            gcs=GcsConfig(batch_max_messages=4, batch_window=0.005),
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    driver = Driver(cluster.network, cluster.discovery)

    def client(cid):
        # disjoint keys: no certification conflicts to special-case
        conn = yield from driver.connect(cluster.new_client_host())
        for _ in range(12):
            yield from conn.execute(
                "UPDATE kv SET v = v + 1 WHERE k = ?", (cid + 1,)
            )
            yield from conn.commit()
            yield sim.sleep(0.02)
        conn.close()

    for cid in range(4):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.run()
    sim.run(until=sim.now + 0.5)

    obs = cluster.obs
    assert len(obs.sampler.rows) >= 5
    row = obs.sampler.rows[-1]
    for index in range(3):
        for metric in REPLICA_GAUGES:
            assert f"R{index}.{metric}" in row
    assert "gcs.buffer_occupancy" in row and "gcs.mean_batch_size" in row
    # batching + group commit actually engaged under the 4-client burst
    assert obs.registry.read_gauges()["gcs.mean_batch_size"] > 1.0
    # protocol milestones reached the shared event log and counters
    assert obs.registry.counters["validation.pass"].value >= 48
    assert obs.events.counts.get("validation", 0) >= 48
    # everything is exported through metrics(), strict-JSON clean
    metrics = cluster.metrics()
    assert metrics["obs"]["series"] == obs.sampler.series()
    json.dumps(metrics, allow_nan=False)


def test_sharded_deployment_shares_one_surface():
    cluster = ShardedCluster(
        ShardConfig(
            n_groups=2,
            group=ClusterConfig(
                n_replicas=2, seed=3, obs=True, sampler_interval=0.1
            ),
        )
    )
    # one registry across the groups; names disambiguated by prefix
    assert cluster.groups[0].obs is cluster.obs
    assert cluster.groups[1].obs is cluster.obs
    gauges = cluster.obs.registry.gauges
    for group in range(2):
        for index in range(2):
            assert f"G{group}-R{index}.tocommit_depth" in gauges
        assert f"G{group}.gcs.buffer_occupancy" in gauges
    cluster.sim.run(until=1.0)
    metrics = cluster.metrics()
    # the shared snapshot appears exactly once, at the top level: the
    # per-group metrics must not each embed the whole surface again
    assert len(metrics["obs"]["series"]) >= 5
    assert "G1-R1.holes" in metrics["obs"]["series"][0]
    for group_metrics in metrics["groups"].values():
        assert "obs" not in group_metrics
    json.dumps(metrics, allow_nan=False)
    cluster.stop()


def test_session_cap_accounting_across_crash_and_failover(monkeypatch):
    monkeypatch.setattr(ClusterConfig, "max_sessions", 1)
    cluster = SIRepCluster(
        ClusterConfig(n_replicas=2, seed=7, obs=True, sampler_interval=0.1)
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)
    gauges = cluster.obs.registry.read_gauges
    log = {}

    def holder():
        # pins R0's single session slot until t=2.0
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("SELECT v FROM kv WHERE k = 1")
        yield from conn.commit()
        yield sim.sleep(2.0)
        conn.close()

    def prober():
        yield sim.sleep(0.2)
        # R0 is at its cap: it declines discovery, so only R1 answers
        log["offered"] = (yield from cluster.discovery.discover())
        conn = yield from driver.connect(cluster.new_client_host())
        log["prober_address"] = conn.address
        log["sessions_while_full"] = gauges()["R0.active_sessions"]
        # crash the serving replica: with R0 still at its cap, failover
        # has to ride the driver's discovery retries until the holder
        # disconnects (t=2.0) and R0's slot frees up
        sim.call_at(sim.now, lambda: cluster.crash(1))
        yield sim.sleep(0.5)
        result = yield from conn.execute("SELECT v FROM kv WHERE k = 1")
        yield from conn.commit()
        log["resumed_at"] = sim.now
        log["rows"] = result.rows
        log["final_address"] = conn.address
        conn.close()

    def impatient():
        # a driver that gives up immediately sees the cap as an outage:
        # R0 full, R1 crashed, nobody answers discovery
        yield sim.sleep(1.0)
        hasty = Driver(cluster.network, cluster.discovery, connect_retries=0)
        with pytest.raises(NoReplicaAvailable):
            yield from hasty.connect(cluster.new_client_host())
        log["outage_seen"] = True

    sim.spawn(holder(), name="holder")
    sim.spawn(prober(), name="prober")
    sim.spawn(impatient(), name="impatient")
    sim.run()
    sim.run(until=sim.now + 1.0)

    assert log["offered"] == ["R1"]
    assert log["prober_address"] == "R1"
    assert log["sessions_while_full"] == 1.0
    assert log["outage_seen"]
    # the failed-over statement could only be served once the holder
    # released R0's single slot
    assert log["resumed_at"] >= 2.0
    assert log["rows"] == [{"v": 0}]
    assert log["final_address"] == "R0"
    # both connections are gone: the cap accounting returned to zero
    assert gauges()["R0.active_sessions"] == 0.0


def test_crash_unregisters_gauges_recovery_restores_them():
    """A crashed replica's gauges leave the registry (the sampler would
    otherwise probe the corpse as NaN forever); recovery re-registers
    them against the new incarnation.  Counters survive the crash: they
    are run totals, not live callbacks."""
    cluster = SIRepCluster(
        ClusterConfig(n_replicas=3, seed=9, obs=True, sampler_interval=0.1)
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    cluster.sim.run(until=0.5)
    registry = cluster.obs.registry
    for metric in REPLICA_GAUGES:
        assert f"R1.{metric}" in registry.gauges
    registry.counter("R1.sentinel").inc(3)

    cluster.crash(1)
    assert not any(name.startswith("R1.") for name in registry.gauges)
    for index in (0, 2):  # survivors keep theirs
        assert f"R{index}.tocommit_depth" in registry.gauges
    assert registry.counters["R1.sentinel"].value == 3
    # the sampler keeps running without NaN columns for the corpse
    cluster.sim.run(until=cluster.sim.now + 0.5)
    assert not any(k.startswith("R1.") for k in cluster.obs.sampler.rows[-1])

    cluster.sim.call_at(cluster.sim.now, lambda: cluster.recover_replica(1))
    cluster.sim.run(until=cluster.sim.now + 2.0)
    for metric in REPLICA_GAUGES:
        assert f"R1.{metric}" in registry.gauges
    assert "R1.tocommit_depth" in cluster.obs.sampler.rows[-1]
    cluster.stop()


def test_stop_unregisters_every_groups_gauges_on_the_shared_surface():
    """``stop()`` leaves no replica or reader callback gauge behind,
    whether the cluster owns the registry or is one group of a sharded
    deployment writing into its owner's."""
    group = ClusterConfig(n_replicas=2, read_replicas=1, seed=9, obs=True)
    for cluster, prefixes in (
        (SIRepCluster(group), ("R",)),
        (ShardedCluster(ShardConfig(n_groups=2, group=group)), ("G0-R", "G1-R")),
    ):
        gauges = cluster.obs.registry.gauges
        for prefix in prefixes:
            assert f"{prefix}1.tocommit_depth" in gauges
            assert f"{prefix}r0.reader.lag" in gauges
        cluster.stop()
        assert not [name for name in gauges if name.startswith(prefixes)]


READER_GAUGES = (
    "reader.watermark",
    "reader.lag",
    "reader.staleness_s",
    "reader.queue_depth",
    "reader.active_sessions",
)


def test_reader_crash_unregisters_reader_gauges():
    """Same hygiene as a crashed full replica: a removed or crashed read
    replica's ``R*.reader.*`` gauges leave the registry so the sampler
    never probes the corpse; survivors and a later elastic join keep or
    get fresh ones."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3, seed=21, obs=True, sampler_interval=0.1,
            read_replicas=2,
        )
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    cluster.sim.run(until=0.5)
    registry = cluster.obs.registry
    for name in ("Rr0", "Rr1"):
        for metric in READER_GAUGES:
            assert f"{name}.{metric}" in registry.gauges

    cluster.crash_reader(0)
    assert not any(key.startswith("Rr0.") for key in registry.gauges)
    for metric in READER_GAUGES:  # the survivor keeps its gauges
        assert f"Rr1.{metric}" in registry.gauges
    cluster.sim.run(until=cluster.sim.now + 0.5)
    assert not any(key.startswith("Rr0.") for key in cluster.obs.sampler.rows[-1])
    assert "Rr1.reader.lag" in cluster.obs.sampler.rows[-1]

    # graceful scale-down is held to the same standard
    cluster.remove_reader(1)
    assert not any(key.startswith("Rr1.") for key in registry.gauges)

    # an elastic join registers the new incarnation's gauges
    reader = cluster.add_reader()
    for metric in READER_GAUGES:
        assert f"{reader.name}.{metric}" in registry.gauges
    cluster.stop()


def test_monitoring_is_read_only():
    """Same seed, full surface on vs off (registry + sampler + span
    tracer + online monitor): the measured run is event-identical."""

    def measure(obs):
        return run_sirep(
            make_mixed_workload(read_weight=0.3),
            60.0,
            ClusterConfig(
                n_replicas=3, seed=4, obs=obs, sampler_interval=0.1,
                span_trace=obs, monitor=obs,
            ),
            duration=2.0,
            warmup=0.5,
        )

    on, off = measure(True), measure(False)
    assert on.throughput == off.throughput
    assert on.mean_rt_ms == off.mean_rt_ms
    assert on.extras["commits"] == off.extras["commits"]
    assert "obs" in on.extras["metrics"]
    assert "obs" not in off.extras["metrics"]
    # the surface was actually attached on the instrumented run
    assert on.extras["metrics"]["span_trace"]["started"] > 0
    assert on.extras["metrics"]["monitor"]["polls"] > 0
    assert on.extras["metrics"]["monitor"]["violations"] == []
