"""The operator surface, pinned to a recorded fixture.

``metrics()`` of an unsharded and of a sharded deployment, and the
registry's gauge names, for seeded runs that cross every membership
action: a replica crashes and recovers, a reader joins and crashes.
The fixture is the JSON text itself, so a key that moves, appears or
vanishes, or a figure that changes, fails here.  Re-record it with
``PYTHONPATH=src python tests/core/test_operator_surface.py --record``
only for a change that means to move the surface.
"""

import json
import sys
from pathlib import Path

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable import DurabilityConfig
from repro.errors import CertificationAborted
from repro.gcs import GcsConfig
from repro.shard import ShardConfig, ShardedCluster

FIXTURE = Path(__file__).parent / "fixtures" / "operator_surface.json"
SCHEMA = ["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"]
ROWS = [{"k": k, "v": 0} for k in range(8)]
OBSERVED = dict(obs=True, span_trace=True, monitor=True, sampler_interval=1.0)


def writes(sim, network, discovery, host, count, start):
    driver = Driver(network, discovery)

    def client():
        conn = yield from driver.connect(host)
        for i in range(count):
            try:
                yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (start + i, i % 8))
                yield from conn.commit()
            except CertificationAborted:
                pass
            yield sim.sleep(0.02)

    sim.spawn(client())


def unsharded() -> dict:
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3, seed=11, durability=DurabilityConfig(), read_replicas=1,
            gcs=GcsConfig(adaptive_window=True), **OBSERVED,
        )
    )
    cluster.load_schema(SCHEMA)
    cluster.bulk_load("kv", ROWS)
    sim = cluster.sim
    # two writers on the same keys: certification aborts feed the
    # adaptive batch window's contention signal
    for start in (0, 1000):
        writes(sim, cluster.network, cluster.discovery, cluster.new_client_host(), 60, start)
    sim.call_at(0.3, lambda: cluster.crash(1))
    sim.call_at(0.6, lambda: cluster.recover_replica(1))
    sim.call_at(0.8, lambda: cluster.add_reader())
    sim.call_at(1.5, lambda: cluster.crash_reader(0))
    sim.run(until=3.0)
    surface = {
        "metrics": cluster.metrics(),
        "gauges": list(cluster.obs.registry.gauges),
    }
    cluster.stop()
    surface["gauges_after_stop"] = list(cluster.obs.registry.gauges)
    return surface


def sharded() -> dict:
    cluster = ShardedCluster(
        ShardConfig(n_groups=2, group=ClusterConfig(n_replicas=2, seed=5, **OBSERVED))
    )
    cluster.load_schema(["CREATE TABLE a (k INT PRIMARY KEY, v INT)",
                         "CREATE TABLE b (k INT PRIMARY KEY, v INT)"])
    for table in ("a", "b"):
        cluster.bulk_load(table, ROWS)
    sim = cluster.sim

    def client(table, start):
        conn = yield from cluster.connect(cluster.new_client_host())
        for i in range(20):
            yield from conn.execute(f"UPDATE {table} SET v = ? WHERE k = ?", (start + i, i % 8))
            yield from conn.commit()
            yield sim.sleep(0.02)

    sim.spawn(client("a", 0))
    sim.spawn(client("b", 100))
    sim.call_at(0.2, lambda: cluster.crash(0, 1))
    sim.call_at(0.5, lambda: cluster.recover_replica(0, 1))
    sim.run(until=2.0)
    surface = {"metrics": cluster.metrics(), "gauges": list(cluster.obs.registry.gauges)}
    cluster.stop()
    surface["open_spans_after_stop"] = len(cluster.tracer.open_spans())
    return surface


def record() -> dict:
    return {"unsharded": unsharded(), "sharded": sharded()}


def test_the_operator_surface_matches_its_recording():
    expected = json.loads(FIXTURE.read_text())
    actual = json.loads(json.dumps(record()))
    for name in ("unsharded", "sharded"):
        # key order is part of the surface: compare the JSON text
        assert json.dumps(actual[name], indent=1) == json.dumps(expected[name], indent=1), name


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
