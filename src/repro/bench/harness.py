"""One experiment = system + workload + offered load -> measured point.

The replicated system is described by the config object the deployment
itself takes — a :class:`~repro.core.cluster.ClusterConfig` or a
:class:`~repro.shard.ShardConfig` — so every knob a cluster has is
reachable from a benchmark without the harness re-declaring it.  The
§6 comparators are built from the same :class:`ClusterConfig`, and
:func:`run_comparator` measures one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from repro.client import RoutedDriver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.baselines import TableLockSystem
from repro.core.cluster import Comparator
from repro.obs import profile_run, sanitize
from repro.shard import ShardConfig, ShardedCluster
from repro.workloads import ClientPool, ProcClientPool, Workload
from repro.workloads.stats import Stats, mean_confidence_interval


def _profile_extras(cluster, update_tps: Optional[float]) -> Optional[dict]:
    """Fold the run's span trees into the phase-attribution report.

    Benchmarks get latency attribution through ``extras["profile"]``
    without ever touching the Tracer: the report carries per-phase
    p50/p95 contributions, the dominant tail phase, and (when the obs
    sampler ran too) the Little's-law queueing diagnostics.
    """
    tracer = getattr(cluster, "tracer", None)
    if tracer is None:
        return None
    obs = getattr(cluster, "obs", None)
    report = profile_run(
        tracer,
        series=obs.sampler.series() if obs is not None else None,
        throughput=update_tps or None,
    )
    return report.to_dict()


@dataclass
class LoadPoint:
    """One measured point of a response-time-vs-load sweep."""

    system: str
    load_tps: float
    throughput: float
    mean_rt_ms: dict[str, float]
    abort_rate: float
    extras: dict = field(default_factory=dict)

    def rt(self, category: str) -> float:
        return self.mean_rt_ms.get(category, float("nan"))


def _n_clients(load: float, expected_rt: float = 0.5) -> int:
    """Enough closed-loop clients to offer ``load`` tps even when the
    response time grows towards saturation."""
    return max(8, int(load * expected_rt) + 4)


def _collect(name: str, load: float, stats: Stats, **extras) -> LoadPoint:
    return LoadPoint(
        system=name,
        load_tps=load,
        throughput=stats.throughput(),
        mean_rt_ms={
            category: data["mean_ms"] for category, data in stats.summary().items()
        },
        abort_rate=stats.abort_rate(),
        extras={
            # latency tails per category: means hide queueing under load
            "p50_ms": {
                name: category.percentile_ms(50)
                for name, category in stats.categories.items()
            },
            "p95_ms": {
                name: category.percentile_ms(95)
                for name, category in stats.categories.items()
            },
            "commits": {
                name: category.commits
                for name, category in stats.categories.items()
            },
            **extras,
        },
    )


def run_sirep(
    workload: Workload,
    load: float,
    config: Union[ClusterConfig, ShardConfig],
    *,
    duration: float = 10.0,
    warmup: float = 2.0,
    label: Optional[str] = None,
    n_clients: Optional[int] = None,
    profile: bool = False,
) -> LoadPoint:
    """Measure the SI-Rep deployment ``config`` describes at one load.

    A :class:`ClusterConfig` is one replication group (SRCA-Rep, or
    SRCA-Opt with ``hole_sync=False``); a :class:`ShardConfig` is
    several behind the router, whose workload must respect the
    single-group-write rule or its transactions surface as aborts.

    ``runtime="wall"`` runs the same protocol on
    :class:`repro.runtime.WallRuntime` — real timers, real TCP
    sockets, real elapsed seconds; ``extras["metrics"]["runtime"]``
    carries the tag so downstream tooling never compares the two clocks
    against each other.  With ``obs`` the point's
    ``extras["metrics"]["obs"]`` carries the queue-depth/hole-age
    time-series.  Monitoring only reads simulator state, so the measured
    numbers are identical with and without it.

    With a read tier (``read_replicas``/``reader``) the client pool
    drives a :class:`~repro.client.RoutedDriver`, so read-only
    transactions are routed (with session tokens and admission control)
    instead of served in place, and the extras carry the read/update
    split plus the routing counters.

    ``profile`` turns on span tracing and folds the run's span trees
    into ``extras["profile"]`` — the critical-path phase attribution of
    :mod:`repro.obs.profile` (per-phase p50/p95, tail-dominant phase,
    queueing diagnostics when ``obs`` sampled gauges too; on a sharded
    deployment the router spans stitched to their per-group branches).
    """
    sharded = isinstance(config, ShardConfig)
    group = config.group if sharded else config
    group = replace(group, span_trace=group.span_trace or profile)
    if sharded:
        cluster = ShardedCluster(replace(config, group=group))
        driver = cluster.router
    else:
        cluster = SIRepCluster(group)
        routed = group.read_replicas > 0 or group.reader is not None
        driver = (
            RoutedDriver(
                cluster.network, cluster.discovery,
                reader_config=cluster.reader_config,
                tracer=cluster.tracer,
            )
            if routed
            else None
        )
    workload.install(cluster)
    pool = ClientPool(
        cluster, workload, n_clients or _n_clients(load), load, duration,
        warmup=warmup, driver=driver,
    )
    stats = pool.run()
    measured = max(duration - warmup, 1e-9)
    split = {
        category: data.commits / measured
        for category, data in stats.categories.items()
    }
    if sharded:
        name = label or f"sharded x{config.n_groups}"
        extras = dict(
            n_groups=config.n_groups,
            update_commits=cluster.total_update_commits(),
            certification_aborts=cluster.total_certification_aborts(),
            cross_shard_readonly=cluster.router.stats_cross_shard_readonly,
            rejected_cross_shard_writes=cluster.router.stats_rejected_writes,
        )
    else:
        name = label or ("SRCA-Rep" if group.hole_sync else "SRCA-Opt")
        statuses = cluster.statuses()
        extras = dict(
            hole_wait_fraction=cluster.hole_wait_fraction(),
            certification_aborts=cluster.total_certification_aborts(),
            gcs_batches=cluster.bus.delivered_batches,
            gcs_mean_batch_size=cluster.bus.mean_batch_size,
            # 0 / 1 without group commit: every count is then 0
            group_commit_mean_size=(
                sum(s.group_commit_synced for s in statuses)
                / max(1, sum(s.group_commit_flushes for s in statuses))
            ),
            read_tps=split.get("read-only", 0.0),
            update_tps=split.get("update", 0.0),
            routing=driver.metrics() if driver is not None else None,
        )
    point = _collect(
        name,
        load,
        stats,
        **extras,
        profile=(
            _profile_extras(cluster, split.get("update", 0.0))
            if profile
            else None
        ),
        metrics=sanitize(cluster.metrics()),
    )
    if cluster.sim.clock == "wall":
        cluster.stop()  # free the loop, sockets, and timers of this run
    return point


def run_comparator(
    workload: Workload,
    load: float,
    system: Comparator,
    *,
    duration: float = 10.0,
    warmup: float = 2.0,
) -> LoadPoint:
    """Measure a §6 comparator, built from its :class:`ClusterConfig`,
    at one load.  The [20] system serves whole-transaction procedure
    calls, so its clients are a :class:`ProcClientPool`."""
    workload.install(system)
    pool = ProcClientPool if isinstance(system, TableLockSystem) else ClientPool
    stats = pool(
        system, workload, _n_clients(load), load, duration, warmup=warmup
    ).run()
    return _collect(system.label, load, stats)


def run_until_confident(
    run_point: Callable[[int], LoadPoint],
    category: str = "update",
    rel_half_width: float = 0.05,
    min_seeds: int = 3,
    max_seeds: int = 12,
) -> tuple[LoadPoint, float]:
    """The paper's stopping rule: "all tests were run until a 95/5
    confidence interval was achieved."

    Repeats ``run_point(seed)`` over seeds until the 95% confidence
    interval of the chosen category's mean response time is within
    ``rel_half_width`` of the mean (or ``max_seeds`` is hit).  Returns a
    LoadPoint whose response times and throughput are seed-averages, and
    the achieved relative half-width.
    """
    points: list[LoadPoint] = []
    achieved = float("inf")
    for seed in range(max_seeds):
        points.append(run_point(seed))
        if len(points) < min_seeds:
            continue
        samples = [p.rt(category) for p in points]
        mean, half = mean_confidence_interval(samples)
        achieved = half / mean if mean else float("inf")
        if achieved <= rel_half_width:
            break
    categories = set()
    for p in points:
        categories.update(p.mean_rt_ms)
    averaged = LoadPoint(
        system=points[0].system,
        load_tps=points[0].load_tps,
        throughput=sum(p.throughput for p in points) / len(points),
        mean_rt_ms={
            c: sum(p.mean_rt_ms.get(c, 0.0) for p in points) / len(points)
            for c in categories
        },
        abort_rate=sum(p.abort_rate for p in points) / len(points),
        extras={"seeds": len(points), "rel_ci": achieved},
    )
    return averaged, achieved
