"""Certifier window GC: collect() soundness, clone/checkpoint carriage,
the delivered-cert floor wiring, and the bounded-window behaviour under
key churn (DESIGN.md §4j)."""

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.validation import Certifier, WsRecord
from repro.durable import DurabilityConfig
from repro.durable.checkpoint import Checkpoint
from repro.gcs import GcsConfig
from repro.storage.writeset import DELETE, UPDATE, WriteOp, WriteSet


def ws(*keys, op=UPDATE):
    return WriteSet(
        [WriteOp("t", k, op, None if op == DELETE else {"k": k}) for k in keys]
    )


def rec(gid, cert, *keys, op=UPDATE, readset=(), blind=()):
    return WsRecord(
        gid, ws(*keys, op=op), cert=cert,
        readset=frozenset(("t", k) for k in readset),
        blind=frozenset(("t", k) for k in blind),
    )


# ------------------------------------------------------------- collect() unit


def test_collect_prunes_only_at_or_below_floor():
    certifier = Certifier()
    for i, key in enumerate([1, 2, 3, 4], start=1):
        assert certifier.validate(rec(f"g{i}", i - 1, key))
    assert certifier.window_size == 4
    swept = certifier.collect(2)
    assert swept == 2
    assert certifier.window_size == 2
    assert certifier.floor == 2
    assert certifier._last_writer == {("t", 3): 3, ("t", 4): 4}
    assert certifier.gc_runs == 1 and certifier.gc_collected == 2


def test_collect_floor_is_monotone():
    certifier = Certifier()
    certifier.validate(rec("g1", 0, 1))
    assert certifier.collect(1) == 1
    assert certifier.collect(0) == 0  # lower floor: no-op
    assert certifier.collect(1) == 0  # same floor: no-op
    assert certifier.floor == 1


def test_collect_prunes_tombstones_in_lockstep():
    certifier = Certifier(salvage=True)
    assert certifier.validate(rec("g1", 0, 1, op=DELETE))
    assert ("t", 1) in certifier._deleted
    certifier.collect(1)
    assert certifier._deleted == set()
    assert certifier.window_size == 0
    # the key is re-certifiable afterwards exactly as tid-0 state would be
    assert certifier.validate(rec("g2", 1, 1))


def test_decisions_identical_after_collect():
    """Pruning entries at or below the floor is invisible to every
    decision whose cert is >= floor (the caller's invariant)."""
    plain, gcd = Certifier(salvage=True), Certifier(salvage=True)
    stream = [
        (0, (1,), (), ()),
        (1, (2,), (), ()),
        (0, (1, 2), (), (1, 2)),  # conflicts; blind -> salvage
        (2, (3,), (), ()),
    ]
    for i, (cert, keys, readset, blind) in enumerate(stream):
        r1 = rec(f"g{i}", cert, *keys, readset=readset, blind=blind)
        r2 = rec(f"g{i}", cert, *keys, readset=readset, blind=blind)
        assert plain.validate(r1) == gcd.validate(r2)
        assert r1.tid == r2.tid and r1.salvaged == r2.salvaged
        gcd.collect(min(c for c, _, _, _ in stream[i + 1:]) if i + 1 < len(stream) else gcd.last_validated_tid)
    assert gcd.window_size <= plain.window_size
    assert gcd.floor_aborts == 0


def test_floor_guard_aborts_conservatively():
    certifier = Certifier()
    certifier.validate(rec("g1", 0, 1))
    certifier.collect(1)
    ok = certifier.validate(rec("late", 0, 9))  # cert below the floor
    assert not ok
    assert certifier.floor_aborts == 1
    assert certifier.rejected == 1


# ------------------------------------------------- clone() / checkpoint carry


def test_clone_carries_counters_and_floor():
    """Regression: clone() used to drop validated/rejected/salvaged/
    salvage_rejects, so a recovered replica reported zeroed certification
    metrics that diverged from its donor."""
    certifier = Certifier(salvage=True)
    assert certifier.validate(rec("g1", 0, 1))
    assert not certifier.validate(rec("g2", 0, 1))  # reject (rmw conflict)
    assert certifier.validate(rec("g3", 0, 1, blind=(1,)))  # salvaged
    certifier.collect(certifier.last_validated_tid - 1)
    clone = Certifier.from_wire(certifier.to_wire())
    for attr in (
        "last_validated_tid", "validated", "rejected", "salvaged",
        "salvage_rejects", "floor", "gc_runs", "gc_collected",
        "floor_aborts", "salvage",
    ):
        assert getattr(clone, attr) == getattr(certifier, attr), attr
    assert clone._last_writer == certifier._last_writer
    assert clone._deleted == certifier._deleted
    # and the clone keeps deciding identically
    r1, r2 = rec("g4", 2, 2), rec("g4", 2, 2)
    assert certifier.validate(r1) == clone.validate(r2)
    assert r1.tid == r2.tid


def test_checkpoint_roundtrips_cert_floor():
    certifier = Certifier()
    certifier.validate(rec("g1", 0, 1))
    certifier.validate(rec("g2", 1, 2))
    certifier.collect(1)
    checkpoint = Checkpoint.capture(
        seq=2, cert_seq=2, applied_beyond=(), csn=2, ddl=(),
        rows={}, certifier=certifier, outcomes={},
    )
    restored = Certifier.from_wire(
        Checkpoint.from_json(checkpoint.to_json()).certifier_state
    )
    assert restored.floor == 1
    assert restored.last_writers == {("t", 2): 2}
    # pre-floor checkpoint blobs (older format) default to floor 0
    legacy = {
        "seq": 2, "cert_seq": 2, "applied_beyond": [], "csn": 2, "ddl": [],
        "rows": {}, "cert_tid": 2, "cert_last_writer": [["t", 2, 2]],
        "outcomes": {}, "nbytes": 0,
    }
    assert Certifier.from_wire(Checkpoint.from_json(legacy).certifier_state).floor == 0


# --------------------------------------------------- cluster-level behaviour


def _run_churn_cluster(seed=11, keys=240, txns_per_client=90, gc=True,
                       crash_recover=False):
    """A contended-knobs cluster where every replica originates writes
    over a churning key space; returns (cluster, window_samples)."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=seed,
            durability=DurabilityConfig(),
            salvage=True,
            group_commit=True,
            gcs=GcsConfig(
                batch_max_messages=4, batch_window=0.004, reorder=True
            ),
        )
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(keys)])
    if not gc:
        for replica in cluster.replicas:
            replica.validation.gc_floor.every = 10**9  # never sweep
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)
    samples = []

    def client(address, offset):
        conn = yield from driver.connect(
            cluster.new_client_host(), address=address
        )
        for i in range(txns_per_client):
            key = (offset + 3 * i) % keys  # churn through the key space
            try:
                yield from conn.execute(
                    "UPDATE kv SET v = ? WHERE k = ?", (i, key)
                )
                yield from conn.commit()
            except Exception:
                pass
            yield sim.sleep(0.01)

    for idx in range(3):
        sim.spawn(client(f"R{idx}", idx), name=f"client-{idx}")

    def sampler():
        while True:
            yield sim.sleep(0.05, weak=True)  # monitoring-only timer
            samples.append(cluster.replicas[0].validation.certifier.window_size)

    sim.spawn(sampler(), name="window-sampler", daemon=True)
    if crash_recover:
        sim.call_at(0.4, lambda: cluster.crash(2))
        sim.call_at(1.1, lambda: cluster.recover_replica(2))
    sim.run()
    sim.run(until=sim.now + 3.0)
    return cluster, samples


def test_certifier_window_plateaus_under_key_churn():
    """With the delivered-cert floor active the last-writer map tracks
    the sweep cadence (a sawtooth bounded by ``GcFloor.every`` deliveries),
    not the distinct keys ever written: 600 updates churn through all
    240 keys, yet the window never reaches the key cardinality and is
    swept back down between peaks."""
    keys = 240
    cluster, samples = _run_churn_cluster(keys=keys, txns_per_client=200)
    r0 = cluster.replicas[0].validation.certifier
    assert r0.validated >= 550  # all three clients' updates certified
    assert r0.floor > 0, "the GC floor never advanced"
    assert r0.gc_collected > 0
    assert r0.floor_aborts == 0
    # plateau: bounded by the sweep cadence, well below the 240 distinct
    # keys written (the unbounded certifier would sit at 240 here)
    assert max(samples) <= 200, f"window grew to {max(samples)}"
    # the sawtooth actually comes back down — sweeps reclaim the window
    assert min(samples[len(samples) // 2:]) < 60
    # quiesced replicas hold only the post-floor tail
    for replica in cluster.replicas:
        assert replica.validation.certifier.window_size < keys / 2
    # the GC surfaces in the metrics dict for dashboards
    per_replica = cluster.metrics()["replicas"]["R0"]
    assert per_replica["certifier_gc_floor"] == r0.floor
    assert per_replica["certifier_gc_collected"] == r0.gc_collected
    assert per_replica["certifier_floor_aborts"] == 0


#: (floor, gc_runs, gc_collected, window_size, floor_aborts) per replica
#: at the end of each churn run, and replica 0's sampled window size
_PINNED = {
    "crash-recover": (
        {"R0": (72, 1, 72, 197, 0), "R1": (72, 1, 72, 197, 0),
         "R2": (0, 0, 0, 239, 0)},
        [9, 18, 27, 36, 45, 54, 63, 72, 78, 84, 90, 96, 102, 108, 114, 120,
         126, 132, 140, 77, 86, 95, 104, 113, 122, 131, 140, 149, 161, 168,
         171, 174, 177, 180, 183, 186, 189, 191, 194] + [197] * 60,
    ),
    "churn": (
        {name: (570, 3, 570, 30, 0) for name in ("R0", "R1", "R2")},
        [9 * i for i in range(1, 22)]
        + [12 + 9 * i for i in range(21)]
        + [9, 18, 27, 36] + [48 + 9 * i for i in range(17)]
        + [9, 18, 27] + [30] * 60,
    ),
}


@pytest.mark.parametrize("run", sorted(_PINNED))
def test_gc_trajectory_is_pinned(run):
    """The floor, its sweeps and the window it leaves are exact: a
    refactor of the floor's bookkeeping must not move any of them."""
    if run == "churn":
        cluster, samples = _run_churn_cluster(txns_per_client=200)
    else:
        cluster, samples = _run_churn_cluster(crash_recover=True)
    finals, window = _PINNED[run]
    assert {
        r.name: (r.validation.certifier.floor, r.validation.certifier.gc_runs,
                 r.validation.certifier.gc_collected, r.validation.certifier.window_size,
                 r.validation.certifier.floor_aborts)
        for r in cluster.replicas
    } == finals
    assert samples == window


def test_gc_is_decision_invisible_with_crash_and_recovery():
    """The same seeded workload — salvage, batching, reorder, group
    commit, a crash and a delta recovery — must produce identical
    outcomes and final states with the GC sweeping vs. disabled."""
    def fingerprint(gc):
        cluster, _ = _run_churn_cluster(gc=gc, crash_recover=True)
        r0 = cluster.replicas[0]
        rows = {
            name: tuple(sorted(
                (row["k"], row["v"])
                for row in replica.node.db.export_committed()["kv"]
            ))
            for name, replica in ((r.name, r) for r in cluster.replicas)
        }
        return {
            "outcomes": dict(r0.in_doubt.outcomes),
            "decisions": (r0.validation.certifier.validated, r0.validation.certifier.rejected,
                          r0.validation.certifier.salvaged),
            "tid": r0.validation.certifier.last_validated_tid,
            "rows": rows,
        }

    with_gc = fingerprint(gc=True)
    without_gc = fingerprint(gc=False)
    assert with_gc == without_gc
