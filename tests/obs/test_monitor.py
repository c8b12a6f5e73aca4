"""Online 1-copy-SI monitor (repro.obs.monitor).

Unit tests drive :meth:`OneCopyMonitor.poll` by hand over fake
``db.history`` lists (the monitor only reads ``sim.now`` outside the
daemon), one per violation kind; the integration test replays the
batched §4.3.2 Ta/Tb scenario from the conformance kit and checks the
monitor flags the constraint cycle *online*, at the poll where it closes
and with the offending event's sim timestamp — not at end of run.
"""

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.gcs import GcsConfig
from repro.obs import OneCopyMonitor
from repro.storage.engine import CostModel


class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakeDb:
    def __init__(self):
        self.history = []


def begin(gid, remote, t, csn=0):
    return ("begin", gid, csn, remote, t)


def commit(gid, t, readset=(), writeset=(), csn=1):
    return ("commit", gid, csn, frozenset(readset), frozenset(writeset), t)


@pytest.fixture
def env():
    sim = FakeSim()
    monitor = OneCopyMonitor(sim)
    dbs = {name: FakeDb() for name in ("R0", "R1")}
    for name, db in dbs.items():
        monitor.watch(name, db)
    return sim, monitor, dbs


def test_silent_on_consistent_histories(env):
    sim, monitor, dbs = env
    for db in dbs.values():
        db.history += [
            begin("g1", remote=False, t=0.0),
            commit("g1", 0.1, writeset={("kv", 1)}),
            begin("g2", remote=False, t=0.2),
            commit("g2", 0.3, readset={("kv", 1)}, writeset={("kv", 1)}),
        ]
    sim.now = 0.5
    assert monitor.poll() == []
    assert monitor.ok and not monitor.tripped
    summary = monitor.summary()
    assert summary["polls"] == 1
    assert summary["watched"] == ["R0", "R1"]
    assert summary["transactions"] == 2


def test_ww_order_disagreement_flagged_once(env):
    sim, monitor, dbs = env
    ws = {("kv", 1)}
    dbs["R0"].history += [
        commit("g1", 0.1, writeset=ws),
        commit("g2", 0.2, writeset=ws),
    ]
    dbs["R1"].history += [
        commit("g2", 0.1, writeset=ws),
        commit("g1", 0.2, writeset=ws),
    ]
    sim.now = 0.3
    new = monitor.poll()
    assert [v.kind for v in new] == ["ww-order"]
    assert set(new[0].gids) == {"g1", "g2"}
    assert new[0].at == 0.3
    assert not monitor.ok
    # the disagreement persists in the histories: never re-emitted
    sim.now = 0.4
    assert monitor.poll() == []
    assert len(monitor.violations) == 1


def test_rowa_divergent_writesets_flagged(env):
    sim, monitor, dbs = env
    dbs["R0"].history.append(commit("g1", 0.1, writeset={("kv", 1)}))
    dbs["R1"].history.append(commit("g1", 0.2, writeset={("kv", 2)}))
    sim.now = 0.3
    new = monitor.poll()
    assert [v.kind for v in new] == ["rowa"]
    assert new[0].gids == ("g1",)
    assert monitor.poll() == []


def test_lost_writeset_after_grace_window(env):
    sim, monitor, dbs = env
    dbs["R0"].history.append(commit("g1", 0.1, writeset={("kv", 1)}))
    sim.now = 1.0  # within grace: missing at R1 is just propagation lag
    assert monitor.poll() == []
    sim.now = 6.0  # 0.1 + loss_grace exceeded
    new = monitor.poll()
    assert [v.kind for v in new] == ["lost-writeset"]
    assert new[0].offending_t == 0.1
    assert "missing at R1" in new[0].detail
    sim.now = 7.0
    assert monitor.poll() == []  # deduped per (gid, replica)


class CountingDict(dict):
    """A ``committed`` map that counts membership tests."""

    lookups = 0

    def __contains__(self, key):
        CountingDict.lookups += 1
        return super().__contains__(key)


def test_lost_check_visits_only_updates_some_watch_misses(env):
    sim, monitor, dbs = env
    for db in dbs.values():
        db.history += [commit(f"g{i}", 0.01 * i, writeset={("kv", i)}) for i in range(50)]
    dbs["R0"].history.append(commit("lost", 0.6, writeset={("kv", 99)}))
    sim.now = 10.0  # every update is past its grace
    assert [v.gids for v in monitor.poll()] == [("lost",)]
    for replica in monitor._audit.replicas.values():
        replica.committed = CountingDict(replica.committed)
    CountingDict.lookups = 0
    assert monitor.poll() == []
    # the 50 updates both replicas hold are not looked up again; only
    # the one R1 still misses is (once per watch)
    assert CountingDict.lookups == 2
    # a new watch misses everything: every update is visited again
    monitor.watch("R2", FakeDb())
    sim.now = 11.0
    flagged = {v.gids[0] for v in monitor.poll()}
    assert flagged == {f"g{i}" for i in range(50)} | {"lost"}


def test_constraint_cycle_trips_one_copy_si(env):
    """The §4.3.2 shape, hand-fed: each replica commits its own writer
    first, and each local reader begins in the window where only the
    local write is visible — the four reads-from edges close a cycle."""
    sim, monitor, dbs = env
    dbs["R0"].history += [
        commit("g1", 0.10, writeset={("kv", 1)}),
        begin("Ta", remote=False, t=0.25),
        commit("Ta", 0.26, readset={("kv", 1), ("kv", 2)}),
        commit("g2", 0.60, writeset={("kv", 2)}),
    ]
    dbs["R1"].history += [
        commit("g2", 0.10, writeset={("kv", 2)}),
        begin("Tb", remote=False, t=0.25),
        commit("Tb", 0.26, readset={("kv", 1), ("kv", 2)}),
        commit("g1", 0.60, writeset={("kv", 1)}),
    ]
    sim.now = 0.7
    new = monitor.poll()
    assert [v.kind for v in new] == ["one-copy-si"]
    assert monitor.tripped
    violation = new[0]
    assert set(violation.gids) >= {"g1", "g2"}
    # anchored on the latest event in the cycle, not on poll time
    assert violation.offending_t <= 0.6 < violation.at
    # the latch holds: the same cycle is not re-reported
    sim.now = 0.8
    assert monitor.poll() == []
    assert monitor.summary()["tripped"] is True


def test_unwatch_rebuilds_without_reemitting(env):
    sim, monitor, dbs = env
    ws = {("kv", 1)}
    dbs["R0"].history += [commit("g1", 0.1, writeset=ws), commit("g2", 0.2, writeset=ws)]
    dbs["R1"].history += [commit("g2", 0.1, writeset=ws), commit("g1", 0.2, writeset=ws)]
    sim.now = 0.3
    assert [v.kind for v in monitor.poll()] == ["ww-order"]
    monitor.unwatch("R1")  # e.g. the replica crashed
    assert monitor.summary()["watched"] == ["R0"]
    sim.now = 0.4
    assert monitor.poll() == []  # rebuild kept the dedup state
    assert len(monitor.violations) == 1
    # and the surviving replica's events were replayed, not dropped
    assert monitor.summary()["transactions"] == 2


def test_retried_remote_apply_uses_last_begin(env):
    """A remote writeset apply can begin, deadlock-abort, and begin
    again; only the begin that leads to the commit counts."""
    sim, monitor, dbs = env
    dbs["R0"].history += [
        begin("g1", remote=True, t=0.1),
        begin("g1", remote=True, t=0.3),  # retry
        commit("g1", 0.4, writeset={("kv", 1)}),
    ]
    dbs["R1"].history += [
        begin("g1", remote=True, t=0.1),
        commit("g1", 0.2, writeset={("kv", 1)}),
    ]
    sim.now = 0.5
    assert monitor.poll() == []
    assert monitor.ok


def test_replayed_prefix_and_snapshot_cover_count_as_committed_first():
    """R1 was watched after a log replay of g1 (its ordered ``prefix``),
    two readers after a snapshot join holding g1 (``covered``), one
    before g1 was known and one after.  A local reader at each, beginning
    after g2, read g1's k1 and g2's k2: every edge points into its
    begin, so there is no cycle, and g1 is not lost."""
    sim = FakeSim()
    monitor = OneCopyMonitor(sim)
    k1, k2 = ("kv", 1), ("kv", 2)
    full, replayed, early, late = FakeDb(), FakeDb(), FakeDb(), FakeDb()
    full.history += [
        begin("g1", remote=False, t=0.0),
        commit("g1", 0.1, writeset={k1, k2}),
        begin("g2", remote=False, t=0.2),
        commit("g2", 0.3, writeset={k2}),
    ]
    monitor.watch("R0", full)
    monitor.watch("Rr0", early, covered={"g1"})
    monitor.watch("R1", replayed, prefix=[("g1", frozenset({k1, k2}))])
    monitor.watch("Rr1", late, covered={"g1"})
    for db, reader in ((replayed, "q1"), (early, "q2"), (late, "q3")):
        db.history += [
            begin("g2", remote=True, t=0.4),
            commit("g2", 0.5, writeset={k2}),
            begin(reader, remote=False, t=0.6),
            commit(reader, 0.7, readset={k1, k2}),
        ]
    sim.now = 10.0
    assert monitor.poll() == []
    assert monitor.ok and not monitor.tripped
    assert monitor.summary()["transactions"] == 2


def test_saturation_stops_checking(env):
    sim, monitor, dbs = env
    monitor.max_txns = 2
    for i in range(4):
        dbs["R0"].history.append(commit(f"g{i}", 0.1 * i, writeset={("kv", i)}))
    sim.now = 1.0
    monitor.poll()
    assert monitor.saturated
    assert monitor.poll() == []  # no further work once saturated
    assert monitor.summary()["saturated"] is True


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        OneCopyMonitor(FakeSim(), interval=0.0)


# ---------------------------------------------------------------------------
# Integration: the batched §4.3.2 anomaly, caught online
# ---------------------------------------------------------------------------


class SlowApply(CostModel):
    """Writeset application is slow; everything else instantaneous."""

    def statement(self, kind, rows_examined, rows_returned, rows_written):
        return (0.0, 0.0)

    def writeset_apply(self, n_ops):
        return (0.5, 0.0)

    def commit(self, n_writes):
        return (0.0, 0.0)


def run_batched_scenario(hole_sync):
    """The conformance kit's §4.3.2 recipe with the monitor attached:
    both writesets travel in one batch, SRCA-Opt commits each writer's
    own update early, and the t=0.25 readers observe the anomaly."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=2,
            hole_sync=hole_sync,
            seed=7,
            gcs=GcsConfig(batch_max_messages=2, batch_window=0.2),
            cost_model=lambda i: SlowApply(),
            monitor=True,
            flight=True,
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}, {"k": 2, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)

    def writer(address, key, value, delay):
        yield sim.sleep(delay)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
        yield from conn.commit()

    def reader(address, delay):
        yield sim.sleep(delay)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("SELECT k, v FROM kv ORDER BY k")
        yield from conn.commit()

    sim.spawn(writer("R0", 1, 11, 0.00), name="Ti")
    sim.spawn(writer("R1", 2, 22, 0.05), name="Tj")
    sim.spawn(reader("R0", 0.25), name="Ta")
    sim.spawn(reader("R1", 0.25), name="Tb")
    sim.run()
    sim.run(until=sim.now + 3.0)
    return cluster


def test_monitor_flags_batched_anomaly_online():
    cluster = run_batched_scenario(hole_sync=False)
    assert cluster.monitor.tripped
    flagged = [v for v in cluster.monitor.violations if v.kind == "one-copy-si"]
    assert len(flagged) == 1
    violation = flagged[0]
    # the readers begin at t=0.25; the cycle's latest event is one of
    # their begins/the early commits — well before the ~1.1s end of run
    assert 0.25 <= violation.offending_t <= violation.at
    assert violation.at < cluster.sim.now  # flagged DURING the run
    assert len(violation.gids) >= 4  # Ti, Tj, Ta, Tb
    # the post-hoc auditor agrees
    assert not cluster.one_copy_report().ok
    # the flight recorder snapped the violation as it happened
    reasons = [snap["reason"] for snap in cluster.flight.snapshots]
    assert "monitor:one-copy-si" in reasons
    cluster.stop()


def test_monitor_silent_when_hole_sync_on():
    cluster = run_batched_scenario(hole_sync=True)
    assert cluster.monitor.ok
    assert not cluster.monitor.tripped
    assert cluster.monitor.summary()["violations"] == []
    assert cluster.monitor.polls > 0  # the daemon actually ran
    assert cluster.one_copy_report().ok
    cluster.stop()
