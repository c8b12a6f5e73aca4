"""Elastic online join + delta catch-up: growing a durable cluster.

The durability subsystem (``repro.durable``) gives every replica a
segmented log of certified writesets.  Because certification is
deterministic, every replica's log holds the same records at the same
sequence numbers — so a new replica can bootstrap by replaying a donor's
log, and a rejoining replica fetches only the suffix it missed instead
of a full state copy.  This demo walks through both, under live traffic:

1. a 3-replica *durable* cluster serves update traffic;
2. ``cluster.add_replica()`` bootstraps R3 online — the donor ships its
   log, R3 replays it, clients discover the new member;
3. R1 crashes, misses some commits, and rejoins via **delta catch-up**:
   it replays its own durable log, then fetches only the records above
   its durable position — bytes proportional to downtime, not DB size;
4. the offline 1-copy-SI audit passes with *all four* replicas included
   (log replay reconstructs real transactions, so recovered replicas
   stay auditable), and the online monitor re-watches them.

Run:  python examples/elastic_join.py
"""

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable import DurabilityConfig
from repro.testing import query


def main() -> None:
    # DurabilityConfig defaults: in-memory logs, no automatic
    # checkpoints (so the logs are never truncated).  (Checkpointed
    # replays restore row *images*, which would drop the rejoiner from
    # the offline audit — pure log replay keeps it auditable, which is
    # what this demo shows off.)
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3, seed=11, durability=DurabilityConfig(), monitor=True
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 6)])
    driver = Driver(cluster.network, cluster.discovery)
    rng = sim.rng("demo")

    def client(cid):
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        for i in range(40):
            yield sim.sleep(0.08 + rng.random() * 0.04)
            try:
                yield from conn.execute(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    (cid * 1000 + i, rng.randint(1, 5)),
                )
                yield from conn.commit()
            except Exception:
                pass

    for cid in range(3):
        sim.spawn(client(cid), name=f"client-{cid}")

    # --- elastic join: N -> N+1 while commits keep flowing
    sim.call_at(
        0.8, lambda: print("t=0.80s  add_replica(): R3 joins online")
        or cluster.add_replica()
    )
    # --- crash + delta rejoin
    sim.call_at(1.6, lambda: print("t=1.60s  crashing R1") or cluster.crash(1))
    sim.call_at(
        3.2,
        lambda: print("t=3.20s  R1 rejoins via delta catch-up")
        or cluster.recover_replica(1),
    )
    sim.run()
    sim.run(until=sim.now + 5.0)

    joined = cluster.replicas[3].status().recovery
    print(f"\nR3 join: mode={joined['mode']} "
          f"records={joined['records']} "
          f"bytes={joined['bytes']}")
    rejoined = cluster.replicas[1]
    stats = rejoined.status().recovery
    print(f"R1 delta rejoin: donor={stats['donor']} from_seq={stats['from_seq']} "
          f"records={stats['records']} bytes={stats['bytes']} "
          f"(vs {rejoined.wslog.tip_seq} records in the full log)")

    states = {
        replica.name: tuple(
            (r["k"], r["v"])
            for r in query(sim, replica.node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for replica in cluster.alive_replicas()
    }
    assert len(states) == 4 and len(set(states.values())) == 1
    print("all four replicas identical ✔")

    report = cluster.one_copy_report()
    watched = sorted(cluster.monitor.summary()["watched"])
    print(f"1-copy-SI audit (recovered replicas included): "
          f"{'OK' if report.ok else report.violations}")
    print(f"online monitor watches: {watched}")
    assert report.ok and watched == ["R0", "R1", "R2", "R3"]

    watermark = cluster.stability.stable_seq()
    print(f"stability watermark: seq {watermark} durable on every member "
          f"(log tips: {[r.wslog.tip_seq for r in cluster.replicas]})")


if __name__ == "__main__":
    main()
