"""GCS uniformity at batch granularity (§5.4, batched).

A batch is sequenced atomically: either the flush happened before the
sender crashed — then every surviving replica delivers the WHOLE batch
and commits all of its transactions — or the sender died while its
writesets were still buffered at the sequencer, and then no replica
ever delivers any of them.  A partially applied batch would be a
uniformity violation, so both sides are pinned here, including the
driver-visible outcomes (transparent success vs outcome-unknown abort).
"""

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.errors import TransactionOutcomeUnknownAborted
from repro.gcs import GcsConfig
from repro.testing import query

# Generous, jitter-free timings so the crash can be placed reliably:
# both writesets reach the sequencer ~t=0.101, the 0.5 s window flushes
# the 2-entry batch ~t=0.601, members deliver at flush + 0.02.
GCS = GcsConfig(
    batch_window=0.5,
    batch_max_messages=8,
    bus_to_member=0.02,
    crash_detection=0.3,
)


@pytest.fixture(autouse=True)
def no_jitter(monkeypatch):
    monkeypatch.setattr(GcsConfig, "jitter", 0.0)
    monkeypatch.setattr(ClusterConfig, "net_jitter", 0.0)


AFTER_FLUSH = 0.615  # sequenced, but not yet delivered to anyone
BEFORE_FLUSH = 0.3  # writesets still buffered at the sequencer


def run_scenario(crash_at):
    cluster = SIRepCluster(
        ClusterConfig(n_replicas=3, seed=5, gcs=GCS)
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}, {"k": 2, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)
    outcomes = {}

    def client(key):
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield sim.sleep(0.1 - sim.now)
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (key * 10, key))
        try:
            yield from conn.commit()
            outcomes[key] = "committed"
        except TransactionOutcomeUnknownAborted:
            outcomes[key] = "unknown-aborted"

    sim.spawn(client(1), name="c1")
    sim.spawn(client(2), name="c2")
    sim.call_at(crash_at, lambda: cluster.crash(0))
    sim.run()
    sim.run(until=sim.now + 3.0)
    survivor_states = {
        replica.name: {
            r["k"]: r["v"]
            for r in query(sim, replica.node.db, "SELECT k, v FROM kv ORDER BY k")
        }
        for replica in cluster.alive_replicas()
    }
    return cluster, outcomes, survivor_states


def test_sender_crash_after_sequencing_delivers_whole_batch():
    """The sender died after the flush but before delivering the batch to
    itself: uniformity obliges every survivor to commit both entries, and
    the drivers resolve both in-doubt commits as committed."""
    cluster, outcomes, states = run_scenario(AFTER_FLUSH)
    assert len(states) == 2
    for name, state in states.items():
        assert state == {1: 10, 2: 20}, f"{name} applied a partial batch: {state}"
    assert outcomes == {1: "committed", 2: "committed"}
    assert cluster.bus.delivered_batches >= 1
    assert cluster.bus.mean_batch_size == 2.0
    assert cluster.one_copy_report().ok


def test_sender_crash_before_flush_delivers_nothing():
    """The sender died while its writesets were still buffered: they are
    never sequenced, so no survivor commits either of them."""
    cluster, outcomes, states = run_scenario(BEFORE_FLUSH)
    assert len(states) == 2
    for name, state in states.items():
        assert state == {1: 0, 2: 0}, f"{name} applied a dropped batch: {state}"
    assert outcomes == {1: "unknown-aborted", 2: "unknown-aborted"}
    # the buffered writesets were discarded, never sequenced
    assert cluster.bus.sequenced_batches == 0
    assert cluster.bus.delivered_batches == 0
    assert cluster.one_copy_report().ok


@pytest.mark.parametrize("crash_at", [AFTER_FLUSH, BEFORE_FLUSH])
def test_batch_is_all_or_nothing(crash_at):
    """The core uniformity invariant, independent of which side the crash
    lands on: the two survivor replicas agree, and the batch's effects
    are all-present or all-absent — never mixed."""
    _cluster, _outcomes, states = run_scenario(crash_at)
    values = list(states.values())
    assert all(state == values[0] for state in values)
    assert values[0] in ({1: 10, 2: 20}, {1: 0, 2: 0})
