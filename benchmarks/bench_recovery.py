"""Delta catch-up vs full state transfer — recovery cost vs downtime.

The claim under test (§8's online recovery, extended with the durable
writeset log): the bytes a rejoining replica transfers should scale with
its *downtime* (the writesets it missed), while a full state transfer
scales with the *database size*.  For short downtimes on a non-trivial
database, delta recovery must ship strictly fewer rows and bytes — and
finish sooner — than shipping the donor's whole committed state.

Sweep: database size x missed-transaction count, each recovered once in
``delta`` mode and once in ``full`` mode on otherwise identical
clusters.  Results (plus the per-point recovery latency in simulated
seconds) go to the gitignored ``results/generated/recovery.json`` (the CI
artifact).
"""

import json
import pathlib

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable import DurabilityConfig
from repro.obs import profile_run

#: the sweep's output, regenerated by every run (gitignored)
GENERATED = pathlib.Path(__file__).resolve().parent.parent / "results" / "generated"

DB_SIZES = (100, 400, 1600)
DOWNTIME_TXNS = (5, 20)
WRITE_SPACING = 0.05


def _run_point(
    db_rows: int, missed: int, mode: str, profile: bool = False
) -> dict:
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3, seed=17, durability=DurabilityConfig(),
            span_trace=profile,
        )
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, db_rows + 1)])
    driver = Driver(cluster.network, cluster.discovery)
    sim = cluster.sim

    def writes():
        yield sim.sleep(0.3)  # strictly after the crash
        conn = yield from driver.connect(cluster.new_client_host(), address="R1")
        for i in range(missed):
            yield sim.sleep(WRITE_SPACING)
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (i, 1 + i % db_rows)
            )
            yield from conn.commit()

    recover_at = 0.3 + missed * WRITE_SPACING + 1.0
    timings = {}

    def waiter():
        while True:
            replica = cluster.replicas[0]
            if replica.incarnation > 0 and replica.recovered:
                break
            yield sim.sleep(0.001)
        timings["recovered_at"] = sim.now

    sim.call_at(0.1, lambda: cluster.crash(0))
    sim.spawn(writes(), name="writes")
    sim.call_at(recover_at, lambda: cluster.recover_replica(0, mode=mode))
    sim.spawn(waiter(), name="waiter", daemon=True)
    sim.run()
    sim.run(until=sim.now + 4.0)

    replica = cluster.replicas[0]
    assert replica.recovered
    stats = replica.recovery_stats
    assert stats["mode"] == mode
    result = {
        "db_rows": db_rows,
        "missed_txns": missed,
        "mode": mode,
        "bytes": stats["bytes"],
        "rows_or_records": stats["records"],
        "recovery_seconds": timings["recovered_at"] - recover_at,
        "donor": stats["donor"],
        "audit_ok": cluster.one_copy_report().ok,
    }
    if profile:
        result["profile"] = profile_run(cluster.tracer).to_dict()
    return result


def _sweep() -> list[dict]:
    points = []
    for db_rows in DB_SIZES:
        for missed in DOWNTIME_TXNS:
            for mode in ("delta", "full"):
                points.append(_run_point(db_rows, missed, mode))
    return points


def test_delta_recovery_beats_full_state_transfer(benchmark):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    by_key = {
        (p["db_rows"], p["missed_txns"], p["mode"]): p for p in points
    }
    for db_rows in DB_SIZES:
        for missed in DOWNTIME_TXNS:
            delta = by_key[(db_rows, missed, "delta")]
            full = by_key[(db_rows, missed, "full")]
            # the tentpole claim: strictly fewer rows AND bytes
            assert delta["rows_or_records"] < full["rows_or_records"], (
                delta, full,
            )
            assert delta["bytes"] < full["bytes"], (delta, full)
            assert delta["rows_or_records"] == missed
            assert full["rows_or_records"] == db_rows
            assert delta["audit_ok"] and full["audit_ok"]

    # delta cost tracks downtime, not database size
    for missed in DOWNTIME_TXNS:
        delta_bytes = {
            by_key[(db, missed, "delta")]["bytes"] for db in DB_SIZES
        }
        assert len(delta_bytes) == 1
    # ...and full cost tracks database size
    full_bytes = [
        by_key[(db, DOWNTIME_TXNS[0], "full")]["bytes"] for db in DB_SIZES
    ]
    assert full_bytes == sorted(full_bytes) and full_bytes[0] < full_bytes[-1]

    print("\nrecovery transfer cost (bytes / rows / sim-seconds):")
    for p in points:
        print(
            f"  db={p['db_rows']:>5} missed={p['missed_txns']:>3} "
            f"{p['mode']:>5}: {p['bytes']:>8} B  "
            f"{p['rows_or_records']:>5} rows  "
            f"{p['recovery_seconds']:.4f}s"
        )

    GENERATED.mkdir(parents=True, exist_ok=True)
    with open(GENERATED / "recovery.json", "w") as fh:
        json.dump({"points": points}, fh, indent=2)


# ---------------------------------------------------------------------------
# Canonical point for the unified suite runner (repro.bench.suite)
# ---------------------------------------------------------------------------


def canonical_point(quick: bool = True) -> dict:
    """Recovery anchor: one delta-vs-full pair, traced on the delta side.

    The phase attribution covers the update transactions the crashed
    replica missed — the same stream the delta transfer replays.
    """
    db_rows = 200 if quick else 400
    missed = 10 if quick else 20
    delta = _run_point(db_rows, missed, "delta", profile=True)
    full = _run_point(db_rows, missed, "full")
    return {
        "config": {
            "db_rows": db_rows,
            "missed_txns": missed,
            "write_spacing": WRITE_SPACING,
            "seed": 17,
        },
        "metrics": {
            "delta_bytes": delta["bytes"],
            "full_bytes": full["bytes"],
            "full_over_delta_bytes": full["bytes"] / max(1, delta["bytes"]),
            "delta_rows": delta["rows_or_records"],
            "full_rows": full["rows_or_records"],
            "delta_recovery_seconds": delta["recovery_seconds"],
            "full_recovery_seconds": full["recovery_seconds"],
        },
        "profile": delta["profile"],
    }
