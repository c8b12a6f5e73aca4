"""Ablations over SI-Rep's design choices (DESIGN.md §4).

* hole synchronization (adjustment 3) on/off — the price of 1-copy-SI;
* GCS latency sensitivity — communication shows up in response time,
  not in maximum throughput;
* replication factor — why adding replicas helps even at 100% updates
  (writeset application is ~20% of full execution);
* validation cost as a function of writeset size.
"""

import random

from repro.bench.costs import MicroCost
from repro.bench.harness import run_sirep
from repro.core import ClusterConfig
from repro.core.validation import Certifier, WsRecord
from repro.gcs import GcsConfig
from repro.storage.writeset import UPDATE, WriteOp, WriteSet
from repro.workloads import micro


def test_ablation_hole_sync_cost(benchmark):
    """Adjustment 3 costs some response time at high load and nothing at
    light load — §6.3's SRCA-Rep vs SRCA-Opt comparison in isolation."""
    workload = micro.make_workload()

    def run():
        out = {}
        for load, tag in ((50, "light"), (175, "heavy")):
            rep = run_sirep(
                workload, load,
                ClusterConfig(n_replicas=5, hole_sync=True, cost_model=lambda _i: MicroCost()),
                duration=6.0, warmup=1.5,
            )
            opt = run_sirep(
                workload, load,
                ClusterConfig(n_replicas=5, hole_sync=False, cost_model=lambda _i: MicroCost()),
                duration=6.0, warmup=1.5,
            )
            out[tag] = (rep, opt)
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    light_rep, light_opt = result["light"]
    heavy_rep, heavy_opt = result["heavy"]
    # at light load the synchronization is nearly free
    assert abs(light_rep.rt("update") - light_opt.rt("update")) < 5.0
    # at heavy load SRCA-Rep waits on holes; SRCA-Opt never does
    assert heavy_rep.extras["hole_wait_fraction"] > 0.0
    assert heavy_opt.extras["hole_wait_fraction"] == 0.0


def test_ablation_gcs_latency_hits_rt_not_throughput(benchmark):
    """Slower multicast inflates commit latency; capacity is unchanged
    (the GCS is not a bottleneck resource in the model, as in the paper's
    Spread measurements)."""
    workload = micro.make_workload()

    def run():
        from repro.core import SIRepCluster
        from repro.workloads import ClientPool

        out = {}
        for tag, factor in (("fast", 1.0), ("slow", 8.0)):
            cluster = SIRepCluster(
                ClusterConfig(
                    n_replicas=5,
                    seed=0,
                    cost_model=lambda _i: MicroCost(),
                    gcs=GcsConfig(
                        sender_to_bus=0.0008 * factor,
                        bus_to_member=0.0007 * factor,
                    ),
                )
            )
            workload.install(cluster)
            pool = ClientPool(cluster, workload, 40, 60, 6.0, warmup=1.5)
            stats = pool.run()
            out[tag] = (stats.mean_latency_ms("update"), stats.throughput())
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    (fast_rt, fast_xput) = result["fast"]
    (slow_rt, slow_xput) = result["slow"]
    assert slow_rt > fast_rt + 5.0  # ~10.5 ms extra multicast latency
    assert abs(slow_xput - fast_xput) < 0.15 * fast_xput


def test_ablation_commit_latency_breakdown(benchmark):
    """Where update-transaction latency goes (§6.3's overhead story):
    at light load it is execution + one GCS multicast; at heavy load
    queueing at the replicas dominates, not the GCS."""

    def measure(load):
        point = run_sirep(
            micro.make_workload(), load,
            ClusterConfig(n_replicas=5, seed=1, cost_model=lambda _i: MicroCost()),
            duration=6.0, warmup=1.5, n_clients=40, profile=True,
        )
        phases = point.extras["profile"]["updates"]["phases"]

        def mean_s(*names):
            # a phase no transaction spent time in is absent from the report
            return sum(
                phases[name]["mean_ms"] for name in names if name in phases
            ) / 1000.0

        return {
            "execution": mean_s("local_execution"),
            "gcs_and_certification": mean_s("sequencing", "fanout", "certify"),
        }

    def run():
        return measure(25), measure(175)

    light, heavy = benchmark.pedantic(run, rounds=1, iterations=1)
    # light load: execution (13 ms of statements) dominates; GCS ~1.5 ms
    assert light["execution"] > 5 * light["gcs_and_certification"]
    assert light["gcs_and_certification"] < 0.004
    # heavy load: execution time inflates with CPU queueing, and the GCS
    # contribution stays flat — communication is not the bottleneck
    assert heavy["execution"] > light["execution"] * 1.2
    assert heavy["gcs_and_certification"] < 0.004


def test_ablation_tpcw_mix_sensitivity(benchmark):
    """The more read-heavy the TPC-W mix, the further a 5-replica
    cluster outruns a single server: reads fan out, only writesets are
    replicated.  browsing (~5% upd) > shopping (~20%) > ordering (50%)."""
    from repro.bench.costs import TpcwCost
    from repro.bench.harness import run_comparator
    from repro.core.baselines import CentralizedSystem
    from repro.workloads import tpcw

    def run():
        out = {}
        # offer far beyond saturation so both systems expose their
        # *maximum* throughput — that ratio is the scalability measure
        for mix in ("ordering", "browsing"):
            workload = tpcw.make_workload(mix=mix)
            config = ClusterConfig(n_replicas=5, cost_model=lambda _i: TpcwCost())
            rep = run_sirep(workload, 500, config, duration=6.0, warmup=1.5)
            cen = run_comparator(
                workload, 500, CentralizedSystem(config), duration=6.0, warmup=1.5,
            )
            out[mix] = rep.throughput / max(cen.throughput, 1e-9)
        return out

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    assert speedups["browsing"] > speedups["ordering"]
    assert all(s > 1.5 for s in speedups.values())


def test_ablation_replication_factor_scales_update_throughput(benchmark):
    """§6.3: remote replicas only apply writesets (~20% of execution), so
    even a 100%-update workload gains capacity from more replicas."""
    workload = micro.make_workload()

    def run():
        out = {}
        for n in (2, 5, 8):
            point = run_sirep(
                workload, 250, ClusterConfig(n_replicas=n, cost_model=lambda _i: MicroCost()),
                duration=6.0, warmup=1.5,
            )
            out[n] = point.throughput
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result[2] < result[5] < result[8]


def test_ablation_failover_downtime_fig3b_vs_fig3c(benchmark):
    """The architectural trade-off of Fig. 3: after a middleware crash,
    clients of the decentralized system (c) resume on a survivor almost
    immediately, while the primary/backup system (b) is down for the
    failure-detection timeout plus takeover."""
    from repro.client import Driver
    from repro.core import SIRepCluster
    from repro.core.primary_backup import PrimaryBackupSystem

    def commit_gap(system, crash, crash_at=2.0, horizon=8.0):
        system.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
        system.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 9)])
        driver = Driver(system.network, system.discovery)
        sim = system.sim
        times = []

        def client(cid):
            conn = yield from driver.connect(system.new_client_host())
            while sim.now < horizon:
                yield sim.sleep(0.05)
                try:
                    yield from conn.execute(
                        "UPDATE kv SET v = v + 1 WHERE k = ?", (cid + 1,)
                    )
                    yield from conn.commit()
                    times.append(sim.now)
                except Exception:
                    pass

        for cid in range(4):
            sim.spawn(client(cid), name=f"c{cid}")
        sim.call_at(crash_at, crash)
        sim.run(until=horizon)
        around = sorted(t for t in times if crash_at - 1 <= t <= horizon)
        gaps = [b - a for a, b in zip(around, around[1:])]
        return max(gaps)

    def run():
        cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=5))
        gap_c = commit_gap(cluster, lambda: cluster.crash(0))
        pb = PrimaryBackupSystem(ClusterConfig(n_replicas=3, seed=5))
        gap_b = commit_gap(pb, pb.crash_primary)
        return gap_b, gap_c

    gap_b, gap_c = benchmark.pedantic(run, rounds=1, iterations=1)
    # (c): only the clients of the dead replica reconnect; outage << detection timeout
    assert gap_c < 0.5
    # (b): everyone waits out the failure detector + takeover
    assert gap_b >= 0.5
    assert gap_b > gap_c


def test_ablation_validation_cost_scales_with_writeset_size(benchmark):
    """Certification is O(|WS|), not O(history): large writesets cost
    proportionally more, history length costs nothing."""
    rng = random.Random(4)

    def make_records(size, count=200):
        return [
            WsRecord(
                f"g{size}-{i}",
                WriteSet(
                    [
                        WriteOp("t", k, UPDATE, {"k": k})
                        for k in rng.sample(range(1_000_000), size)
                    ]
                ),
                cert=i,
            )
            for i in range(count)
        ]

    small = make_records(2)
    large = make_records(100)

    def time_batch(records):
        """Best-of-5 wall-clock for validating a fresh copy of a batch."""
        import time

        best = float("inf")
        for _ in range(5):
            certifier = Certifier()
            batch = [
                WsRecord(record.gid, record.writeset, record.cert)
                for record in records
            ]
            t0 = time.perf_counter()
            for record in batch:
                certifier.validate(record)
            best = min(best, time.perf_counter() - t0)
        return best

    def run():
        return time_batch(small), time_batch(large)

    t_small, t_large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert t_large > 3 * t_small  # 50x the keys, clearly superlinear gap
