"""The §6 experiments: one function per figure plus the measurable claims.

Each function returns the list of measured :class:`LoadPoint` values and
(optionally) prints the paper-style series.  ``fast=True`` shrinks the
sweep and the horizon for CI-friendly runs; the shapes survive, the
confidence intervals do not.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.costs import (
    LargeDbCost,
    MicroCost,
    TpcwCost,
    apply_cost_micro,
    full_execution_cost_micro,
)
from repro.bench.harness import LoadPoint, run_comparator, run_sirep
from repro.bench.tables import render_series
from repro.core import ClusterConfig
from repro.core.baselines import CentralizedSystem, TableLockSystem
from repro.workloads import largedb, micro, tpcw

FIG5_LOADS = (10, 25, 50, 75, 100, 125, 150)
FIG5_LOADS_FAST = (25, 50, 100)
FIG6_LOADS = (5, 10, 15, 20, 25, 30, 35, 40, 45)
FIG6_LOADS_FAST = (5, 20, 35)
FIG7_LOADS = (25, 50, 75, 100, 125, 150, 175, 200)
FIG7_LOADS_FAST = (25, 75, 150)


def _horizon(fast: bool) -> tuple[float, float]:
    return (6.0, 1.5) if fast else (14.0, 3.0)


def fig5_tpcw(
    fast: bool = False, quiet: bool = False, read_replicas: int = 2
) -> list[LoadPoint]:
    """Fig. 5: TPC-W response times vs load — 5 replicas vs centralized.

    The replicated side drives a :class:`~repro.client.RoutedDriver`
    against a lazy read tier by default (``read_replicas=2``): TPC-W's
    many short browsing queries are exactly the traffic the read tier
    exists for, and session tokens keep read-your-writes intact.  Pass
    ``read_replicas=0`` for the pre-read-tier in-place behaviour.
    """
    workload = tpcw.make_workload()
    duration, warmup = _horizon(fast)
    loads = FIG5_LOADS_FAST if fast else FIG5_LOADS
    points: list[LoadPoint] = []
    config = ClusterConfig(
        n_replicas=5, cost_model=lambda _i: TpcwCost(), read_replicas=read_replicas
    )
    for load in loads:
        points.append(
            run_sirep(workload, load, config, duration=duration, warmup=warmup)
        )
        points.append(
            run_comparator(
                workload, load, CentralizedSystem(config),
                duration=duration, warmup=warmup,
            )
        )
    if not quiet:
        print(render_series("Figure 5: TPC-W ordering mix (5 replicas)", points))
    return points


def fig6_largedb(fast: bool = False, quiet: bool = False) -> list[LoadPoint]:
    """Fig. 6: large I/O-bound DB — update response time, 5 vs 10 replicas."""
    workload = largedb.make_workload()
    duration, warmup = _horizon(fast)
    loads = FIG6_LOADS_FAST if fast else FIG6_LOADS
    points: list[LoadPoint] = []
    config = ClusterConfig(cost_model=lambda _i: LargeDbCost(), with_disk=True)
    for load in loads:
        for n in (5, 10):
            points.append(
                run_sirep(
                    workload, load, replace(config, n_replicas=n),
                    duration=duration, warmup=warmup, label=f"{n} replicas",
                )
            )
    if not quiet:
        print(render_series("Figure 6: large database (1.1 GB-scale, 20/80 mix)", points))
        print(
            "\n(centralized reference: saturates around 4-5 tps; "
            "not plotted in the paper's figure either)"
        )
    return points


def fig6_centralized_reference(fast: bool = False) -> LoadPoint:
    """The §6.2 text claim: a single server maxes out around 4 tps."""
    workload = largedb.make_workload()
    duration, warmup = _horizon(fast)
    return run_comparator(
        workload, 8,
        CentralizedSystem(
            ClusterConfig(cost_model=lambda _i: LargeDbCost(), with_disk=True)
        ),
        duration=duration, warmup=warmup,
    )


def fig7_update_intensive(fast: bool = False, quiet: bool = False) -> list[LoadPoint]:
    """Fig. 7: 100% updates — SRCA-Rep vs SRCA-Opt vs centralized vs [20]."""
    workload = micro.make_workload()
    duration, warmup = _horizon(fast)
    loads = FIG7_LOADS_FAST if fast else FIG7_LOADS
    points: list[LoadPoint] = []
    config = ClusterConfig(n_replicas=5, cost_model=lambda _i: MicroCost())
    for load in loads:
        for hole_sync in (True, False):
            points.append(
                run_sirep(
                    workload, load, replace(config, hole_sync=hole_sync),
                    duration=duration, warmup=warmup,
                )
            )
        points.append(
            run_comparator(
                workload, load, CentralizedSystem(config),
                duration=duration, warmup=warmup,
            )
        )
        points.append(
            run_comparator(
                workload, load, TableLockSystem(workload.procedures(), config),
                duration=duration, warmup=warmup,
            )
        )
    if not quiet:
        print(
            render_series(
                "Figure 7: update-intensive workload (5 replicas)",
                points,
                categories=("update",),
                extras=("hole_wait_fraction",),
            )
        )
    return points


# ---------------------------------------------------------------------------
# §6 claims
# ---------------------------------------------------------------------------


def claim_writeset_apply_fraction() -> dict:
    """§6.3: applying writesets ~20% of executing the full transaction."""
    full = full_execution_cost_micro()
    apply = apply_cost_micro()
    return {
        "full_execution_ms": full * 1000,
        "apply_ms": apply * 1000,
        "fraction": apply / full,
    }


def claim_tpcw_abort_rate(fast: bool = False) -> dict:
    """§6.1: TPC-W conflict rates small, aborts far below 1%."""
    duration, warmup = _horizon(fast)
    point = run_sirep(
        tpcw.make_workload(), 75,
        ClusterConfig(n_replicas=5, cost_model=lambda _i: TpcwCost()),
        duration=duration, warmup=warmup,
    )
    return {"abort_rate": point.abort_rate, "load_tps": 75}


def claim_hole_frequency(fast: bool = False) -> dict:
    """§6.3: holes at ~4-8% of transaction starts under heavy updates."""
    duration, warmup = _horizon(fast)
    point = run_sirep(
        micro.make_workload(), 175,
        ClusterConfig(n_replicas=5, cost_model=lambda _i: MicroCost()),
        duration=duration, warmup=warmup,
    )
    return {
        "hole_wait_fraction": point.extras["hole_wait_fraction"],
        "load_tps": 175,
    }


def claim_multicast_latency(messages: int = 500) -> dict:
    """§5.2: uniform reliable multicast <= 3 ms at hundreds of msgs/s."""
    from repro.gcs import GroupBus, Message
    from repro.sim import Simulator

    sim = Simulator(seed=9)
    bus = GroupBus(sim)
    members = [bus.join(f"m{i}") for i in range(5)]
    latencies: list[float] = []

    def receiver(member):
        while True:
            item = yield member.deliver()
            if isinstance(item, Message):
                latencies.append(sim.now - item.payload)

    sim.spawn(receiver(members[4]), name="recv", daemon=True)

    def sender():
        for i in range(messages):
            members[i % 4].multicast(sim.now)
            yield sim.sleep(1.0 / 400.0)  # ~400 msgs/s

    sim.spawn(sender(), name="send", daemon=True)
    sim.run(until=10.0)
    return {
        "messages": len(latencies),
        "mean_ms": 1000 * sum(latencies) / len(latencies),
        "max_ms": 1000 * max(latencies),
    }


def claims(fast: bool = False, quiet: bool = False) -> dict:
    results = {
        "writeset-apply-fraction (§6.3 ~20%)": claim_writeset_apply_fraction(),
        "tpcw-abort-rate (§6.1 <1%)": claim_tpcw_abort_rate(fast),
        "hole-frequency (§6.3 4-8%)": claim_hole_frequency(fast),
        "multicast-latency (§5.2 <=3ms)": claim_multicast_latency(),
    }
    if not quiet:
        for name, data in results.items():
            print(f"{name}: {data}")
    return results
