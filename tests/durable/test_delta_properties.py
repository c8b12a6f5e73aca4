"""Property: delta transfer size scales with downtime, not database size.

The point of delta catch-up (§8) is that a rejoiner pays for what it
*missed*, while a full state transfer pays for what the database *holds*.
Hypothesis drives real mini-clusters: for a fixed set of missed writesets
the delta payload is identical regardless of how many rows were bulk
loaded, it grows monotonically with the number of missed transactions,
and the full-state payload — unlike the delta — grows with the database.
"""

from hypothesis import given, settings, strategies as st

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable import DurabilityConfig


def run_recovery(db_rows: int, missed: int, mode: str = "delta") -> dict:
    """One crash/recover cycle; returns the rejoiner's recovery stats."""
    cluster = SIRepCluster(ClusterConfig(n_replicas=2, seed=7, durability=DurabilityConfig()))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, db_rows + 1)])
    driver = Driver(cluster.network, cluster.discovery)
    sim = cluster.sim

    def writes():
        yield sim.sleep(0.3)  # strictly after the crash: all missed
        conn = yield from driver.connect(cluster.new_client_host(), address="R1")
        for i in range(missed):
            # fixed-width values so payload size depends only on count
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (1000 + i % 7, 1 + i % 5)
            )
            yield from conn.commit()

    sim.call_at(0.1, lambda: cluster.crash(0))
    sim.spawn(writes(), name="w")
    sim.call_at(3.0, lambda: cluster.recover_replica(0, mode=mode))
    sim.run()
    sim.run(until=sim.now + 4.0)
    stats = dict(cluster.replicas[0].recovery.stats)
    assert cluster.replicas[0].recovery.installed
    return stats


@settings(max_examples=5, deadline=None)
@given(
    db_rows=st.integers(min_value=5, max_value=40),
    missed=st.integers(min_value=1, max_value=6),
)
def test_delta_bytes_depend_on_downtime_not_db_size(db_rows, missed):
    small = run_recovery(db_rows, missed)
    large = run_recovery(db_rows * 3, missed)
    assert small["mode"] == large["mode"] == "delta"
    assert small["records"] == large["records"] == missed
    # same missed writesets -> same payload, regardless of table size
    assert small["bytes"] == large["bytes"]

    longer = run_recovery(db_rows, missed + 3)
    assert longer["records"] == missed + 3
    # more downtime -> strictly more to ship
    assert longer["bytes"] > small["bytes"]


@settings(max_examples=3, deadline=None)
@given(
    db_rows=st.integers(min_value=5, max_value=25),
    missed=st.integers(min_value=1, max_value=4),
)
def test_full_transfer_grows_with_db_size_and_dwarfs_delta(db_rows, missed):
    delta = run_recovery(db_rows * 4, missed, mode="delta")
    full_small = run_recovery(db_rows, missed, mode="full")
    full_large = run_recovery(db_rows * 4, missed, mode="full")
    assert full_large["bytes"] > full_small["bytes"]
    # the whole point: short downtime on a big database -> delta wins
    assert delta["bytes"] < full_large["bytes"]
    assert delta["records"] == missed
    assert full_large["records"] == db_rows * 4  # every row shipped
