"""The §4.3.2 Ta/Tb anomaly kit re-run with the contention knobs ON.

Reordering, salvage, and adaptive windows must not mask the anomaly the
paper's adjustment 3 exists to fix (Ti and Tj write *different* keys, so
neither knob may touch their fate), and must not weaken the fix: with
hole tracking on, 1-copy-SI still holds — online and offline — even
under crash fuzz.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.errors import DatabaseError
from repro.gcs import GcsConfig
from repro.storage.engine import CostModel
from repro.testing import query

KNOBBED_GCS = dict(
    batch_max_messages=2,
    batch_window=0.2,
    reorder=True,
    adaptive_window=True,
    batch_window_min=0.05,
    batch_window_max=0.3,
)


class SlowApply(CostModel):
    """Writeset application is slow; everything else instantaneous."""

    def statement(self, kind, rows_examined, rows_returned, rows_written):
        return (0.0, 0.0)

    def writeset_apply(self, n_ops):
        return (0.5, 0.0)

    def commit(self, n_writes):
        return (0.0, 0.0)


def run_batched_scenario(hole_sync):
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=2,
            hole_sync=hole_sync,
            salvage=True,
            seed=7,
            gcs=GcsConfig(**KNOBBED_GCS),
            cost_model=lambda i: SlowApply(),
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}, {"k": 2, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)
    reads = {}

    def writer(address, key, value, delay):
        yield sim.sleep(delay)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
        yield from conn.commit()

    def reader(name, address, delay):
        yield sim.sleep(delay)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        result = yield from conn.execute("SELECT k, v FROM kv ORDER BY k")
        yield from conn.commit()
        reads[name] = {r["k"]: r["v"] for r in result.rows}

    sim.spawn(writer("R0", 1, 11, 0.00), name="Ti")
    sim.spawn(writer("R1", 2, 22, 0.05), name="Tj")
    sim.spawn(reader("Ta", "R0", 0.25), name="Ta")
    sim.spawn(reader("Tb", "R1", 0.25), name="Tb")
    sim.run()
    sim.run(until=sim.now + 3.0)
    return cluster, reads


def test_knobs_do_not_mask_the_batched_anomaly():
    """Disjoint writesets: salvage has nothing to refresh and reordering
    nothing to move, so the hole-induced Ta/Tb divergence still shows up
    and the auditor still flags it."""
    cluster, reads = run_batched_scenario(hole_sync=False)
    assert reads["Ta"] == {1: 11, 2: 0}
    assert reads["Tb"] == {1: 0, 2: 22}
    assert cluster.replicas[0].validation.certifier.salvaged == 0
    report = cluster.one_copy_report()
    assert not report.ok
    assert report.cycle is not None


def test_knobs_do_not_weaken_adjustment_three():
    cluster, reads = run_batched_scenario(hole_sync=True)
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]
    # both readers observed a snapshot some serial SI execution allows
    for r in reads.values():
        assert tuple(sorted(r.items())) in {
            ((1, 0), (2, 0)),
            ((1, 11), (2, 0)),
            ((1, 0), (2, 22)),
            ((1, 11), (2, 22)),
        }


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_at=st.floats(min_value=0.1, max_value=1.5),
    victim=st.integers(min_value=0, max_value=2),
    recover=st.booleans(),
)
def test_crash_fuzz_with_knobs_keeps_monitor_clean(seed, crash_at, victim, recover):
    """Random crash/recovery under contended load with every new knob
    on: the *online* Def. 3 monitor must flag zero violations and the
    offline audit must agree."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=seed,
            salvage=True,
            monitor=True,
            gcs=GcsConfig(
                batch_max_messages=4,
                batch_window=0.002,
                reorder=True,
                adaptive_window=True,
                batch_window_min=0.0005,
                batch_window_max=0.01,
            ),
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    driver = Driver(cluster.network, cluster.discovery)
    rng = sim.rng("fuzz")
    committed = [0]

    def client(cid):
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(20):
            yield sim.sleep(0.02 + rng.random() * 0.05)
            try:
                yield from conn.execute(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    (cid * 100 + i, rng.randint(1, 4)),
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
    assert cluster.monitor is not None
    assert cluster.monitor.violations == [], [
        str(v) for v in cluster.monitor.violations
    ]
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
