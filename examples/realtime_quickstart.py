"""Realtime quickstart: the same cluster on real sockets and timers.

Everything in ``quickstart.py`` runs on the discrete-event simulator —
virtual time, deterministic, finished in milliseconds.  This script runs
the *identical protocol code* on the wall-clock runtime instead:
``ClusterConfig(runtime="wall")`` swaps the scheduler for the runtime's
own selector loop on the monotonic clock, the in-sim LAN for
non-blocking TCP sockets on 127.0.0.1, and (with a log directory) the
accounted log flush for genuine ``os.fsync``.  Sleeps
take real seconds; the printed timestamps are honest elapsed time.

Run:  python examples/realtime_quickstart.py
"""

import tempfile

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable.store import DurabilityConfig
from repro.errors import TransactionAborted
from repro.testing import query


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="sirep-wal-") as wal_dir:
        cluster = SIRepCluster(
            ClusterConfig(
                n_replicas=3,
                seed=42,
                runtime="wall",  # <- the only switch that matters
                durability=DurabilityConfig(log_dir=wal_dir),
            )
        )
        sim = cluster.sim  # a WallRuntime; same interface, real clock
        print(f"runtime: {sim.clock} (fsync-backed WAL in {wal_dir})")
        cluster.load_schema(
            [
                "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT "
                "NOT NULL, balance FLOAT)"
            ]
        )
        cluster.bulk_load(
            "accounts",
            [
                {"id": 1, "owner": "alice", "balance": 100.0},
                {"id": 2, "owner": "bob", "balance": 250.0},
                {"id": 3, "owner": "carol", "balance": 0.0},
            ],
        )
        driver = Driver(cluster.network, cluster.discovery)

        def session():
            conn = yield from driver.connect(cluster.new_client_host())
            print(
                f"t={sim.now * 1000:7.1f} ms  connected to replica "
                f"{conn.address} over TCP"
            )
            yield from conn.execute(
                "UPDATE accounts SET balance = balance - 50 WHERE id = 2"
            )
            yield from conn.execute(
                "UPDATE accounts SET balance = balance + 50 WHERE id = 3"
            )
            try:
                yield from conn.commit()
                print(f"t={sim.now * 1000:7.1f} ms  transfer committed")
            except TransactionAborted as exc:
                print(f"t={sim.now * 1000:7.1f} ms  aborted: {exc}")
            # a real sleep: this parks on loop.call_later, not a heap pop
            yield sim.sleep(0.05)
            rows = yield from conn.execute(
                "SELECT owner, balance FROM accounts ORDER BY id"
            )
            for row in rows.rows:
                print(f"    {row['owner']:>6}: {row['balance']:7.2f}")

        sim.run_process(session())

        # every replica converged over real sockets
        states = {
            replica.name: tuple(
                (r["id"], r["balance"])
                for r in query(
                    sim,
                    replica.node.db,
                    "SELECT id, balance FROM accounts ORDER BY id",
                )
            )
            for replica in cluster.alive_replicas()
        }
        assert len(set(states.values())) == 1, states
        print(f"replicas converged: {sorted(states)}")
        report = cluster.one_copy_report()
        print(f"1-copy-SI audit: {'ok' if report.ok else 'VIOLATED'}")
        fsyncs = sum(
            cluster.durable_store.replica(r.name).log.fsyncs
            for r in cluster.alive_replicas()
        )
        print(f"real fsyncs paid on the commit path: {fsyncs}")
        cluster.stop()  # closes sockets, cancels timers, fails waiters
        print("cluster stopped cleanly")


if __name__ == "__main__":
    main()
