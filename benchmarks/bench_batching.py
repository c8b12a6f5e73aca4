"""Writeset batching + group commit — update throughput vs batch size.

The two serial resources on the update hot path are the GCS sequencer
(one fan-out per sequenced item) and the per-replica commit log force.
Both charge per ITEM, not per writeset, so packing k writesets into one
batch raises the bus ceiling k-fold, and group commit amortises the log
force the same way.  Read-only transactions never touch either resource:
their latency must stay flat while update throughput climbs.

Setup: 5 replicas, the BatchMicroCost model (cheap CPU, 4 ms log force,
disk modelled), a 5 ms sequencer service time that caps the unbatched
bus at ~200 writesets/s, and a 70/30 update/read mix offered well above
that cap.  Sweep batch_max_messages; everything else fixed.

The sweep runs with the repro.obs surface attached (metrics registry,
gauge sampler, event log): each measured point carries queue-depth and
hole-age time-series in ``extras["metrics"]["obs"]["series"]``, also
written standalone to ``results/generated/batching_series.json``
(gitignored, like ``results/generated/batching.json``: a run leaves the
checkout clean).  Monitoring only *reads* simulator state, so the
measured throughput is identical with and without it — asserted below
against a metrics-off control run at batch 8.
"""

import json
import pathlib

from repro.bench.costs import BatchMicroCost
from repro.bench.harness import run_sirep
from repro.core import ClusterConfig
from repro.gcs import GcsConfig
from repro.workloads.micro import make_mixed_workload

#: the sweeps' output, regenerated by every run (gitignored)
GENERATED = pathlib.Path(__file__).resolve().parent.parent / "results" / "generated"

BATCH_SIZES = (1, 2, 4, 8, 16)
N_REPLICAS = 5
OFFERED_TPS = 800.0
READ_WEIGHT = 0.3
BUS_SERVICE_TIME = 0.005
BATCH_WINDOW = 0.005
SAMPLER_INTERVAL = 0.25


def _update_tps(point) -> float:
    commits = point.extras["commits"]
    total = sum(commits.values())
    if not total:
        return 0.0
    return point.throughput * commits.get("update", 0) / total


def _slim(extras: dict) -> dict:
    """Per-point extras for batching.json, without the sampled series
    (that goes standalone to batching_series.json — no duplication)."""
    extras = dict(extras)
    metrics = dict(extras.get("metrics", {}))
    if "obs" in metrics:
        obs = dict(metrics["obs"])
        obs.pop("series", None)
        metrics["obs"] = obs
    extras["metrics"] = metrics
    return extras


def _config(batch: int, gcs_knobs=None, **knobs) -> ClusterConfig:
    """The sweep's deployment at one batch size; ``gcs_knobs`` / ``knobs``
    are the GcsConfig / ClusterConfig fields a point varies on top of it."""
    return ClusterConfig(
        n_replicas=N_REPLICAS,
        cost_model=lambda _i: BatchMicroCost(),
        with_disk=True,
        gcs=GcsConfig(
            batch_max_messages=batch,
            batch_window=BATCH_WINDOW,
            bus_service_time=BUS_SERVICE_TIME,
            **(gcs_knobs or {}),
        ),
        group_commit=True,
        seed=0,
        sampler_interval=SAMPLER_INTERVAL,
        **knobs,
    )


def _run_point(batch: int, obs: bool, span_trace: bool = False):
    workload = make_mixed_workload(read_weight=READ_WEIGHT)
    return run_sirep(
        workload,
        OFFERED_TPS,
        _config(batch, obs=obs, span_trace=span_trace),
        duration=6.0,
        warmup=1.5,
        label=f"batch={batch}",
    )


def _sweep():
    points = {batch: _run_point(batch, obs=True) for batch in BATCH_SIZES}
    # metrics-off control: monitoring must not move the measured numbers
    points["control"] = _run_point(8, obs=False)
    # causal tracing on: span bookkeeping is pure Python dict/list work
    # with no yields, so the sim-time numbers must not move either
    points["traced"] = _run_point(8, obs=True, span_trace=True)
    return points


def test_batching_throughput(benchmark):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    control = points.pop("control")
    traced = points.pop("traced")

    base_updates = _update_tps(points[1])
    ratios = {b: _update_tps(points[b]) / base_updates for b in BATCH_SIZES}
    for b in BATCH_SIZES:
        p = points[b]
        print(
            f"batch={b}: {_update_tps(p):.1f} update tps (x{ratios[b]:.2f}), "
            f"read p50 {p.extras['p50_ms'].get('read-only', float('nan')):.2f} ms, "
            f"mean batch {p.extras['gcs_mean_batch_size']:.2f}, "
            f"mean commit group {p.extras['group_commit_mean_size']:.2f}"
        )

    GENERATED.mkdir(parents=True, exist_ok=True)
    (GENERATED / "batching.json").write_text(
        json.dumps(
            {
                "offered_tps": OFFERED_TPS,
                "read_weight": READ_WEIGHT,
                "n_replicas": N_REPLICAS,
                "bus_service_time": BUS_SERVICE_TIME,
                "batch_window": BATCH_WINDOW,
                "sampler_interval": SAMPLER_INTERVAL,
                "points": {
                    str(b): {
                        "update_tps": _update_tps(points[b]),
                        "speedup": ratios[b],
                        "throughput": points[b].throughput,
                        "update_rt_ms": points[b].rt("update"),
                        "read_rt_ms": points[b].rt("read-only"),
                        "abort_rate": points[b].abort_rate,
                        "extras": _slim(points[b].extras),
                    }
                    for b in BATCH_SIZES
                },
            },
            indent=2,
            allow_nan=False,  # sanitized upstream; NaN here is a bug
        )
    )
    # standalone time-series export: gauge curves per batch size (the CI
    # artifact a dashboard can plot without parsing the whole result)
    (GENERATED / "batching_series.json").write_text(
        json.dumps(
            {
                str(b): points[b].extras["metrics"]["obs"]["series"]
                for b in BATCH_SIZES
            },
            indent=2,
            allow_nan=False,
        )
    )

    # batching lifts the sequencer/log-force ceilings: >=1.5x at batch 8
    assert ratios[8] >= 1.5
    # reads never queue on the bus or the log: p50 stays flat
    read_p50_base = points[1].extras["p50_ms"]["read-only"]
    read_p50_batched = points[8].extras["p50_ms"]["read-only"]
    assert read_p50_batched <= read_p50_base * 1.25
    # batching actually engaged at the larger sizes
    assert points[8].extras["gcs_mean_batch_size"] > 2.0

    # the obs surface delivered its time-series: queue depth + hole age
    # probed on every replica at the sampler cadence
    series = points[8].extras["metrics"]["obs"]["series"]
    assert len(series) >= 10
    assert "R0.tocommit_depth" in series[0]
    assert "R0.oldest_hole_age" in series[0]
    # monitoring is read-only: within 5% of the metrics-off control run
    assert abs(_update_tps(points[8]) - _update_tps(control)) <= (
        0.05 * _update_tps(control)
    )
    # causal tracing is read-only too: the traces-on point stays within
    # 5% of the traces-off point at the same batch size (and it actually
    # traced — every update transaction yielded a span tree)
    overhead = abs(_update_tps(traced) - _update_tps(points[8])) / _update_tps(
        points[8]
    )
    print(f"tracing overhead: {100.0 * overhead:.2f}% of update tps")
    assert overhead <= 0.05
    # it actually traced (spans still open at the cutoff are in-flight
    # transactions, not leaks — leak-freedom is pinned by the obs tests
    # on fully-drained runs)
    span_counts = traced.extras["metrics"]["span_trace"]
    assert span_counts["started"] > 0 and span_counts["finished"] > 0


# --------------------------------------------------------------- contention
#
# The contention lane: the same 800-tps update-heavy point, before and
# after the contention engine (conflict-aware reordering + abort salvage
# + blind-write deferral + commit pipelining).  Both sides run on
# 2-core replicas: at one core the 800-tps point is compute-saturated
# the moment salvage stops shedding 29% of the offered work as aborts,
# so a 1-core comparison measures the CPU queue, not the conflict
# machinery this lane exists to measure.  Everything else — offered
# load, mix, costs, batch knobs, seed — matches the batching sweep's
# 800-tps batch-8 point, which run_contention runs too and whose abort
# rate and update p95 it carries into contention.json as the anchor.

CONTENTION_CPU_SERVERS = 2


def _run_contention_point(
    knobs_on: bool, duration: float, warmup: float, profile: bool = False
):
    gcs_knobs = None
    if knobs_on:
        # adaptive window floors at the static window: it only ever
        # WIDENS under a contention signal, so the idle behaviour is
        # identical to the before side's fixed window
        gcs_knobs = dict(
            reorder=True,
            adaptive_window=True,
            batch_window_min=BATCH_WINDOW,
            batch_window_max=0.015,
        )
    workload = make_mixed_workload(read_weight=READ_WEIGHT)
    return run_sirep(
        workload,
        OFFERED_TPS,
        _config(
            8, gcs_knobs, salvage=knobs_on, cpu_servers=CONTENTION_CPU_SERVERS
        ),
        duration=duration,
        warmup=warmup,
        label="after" if knobs_on else "before",
        profile=profile,
    )


def _contention_summary(point) -> dict:
    m = point.extras["metrics"]
    commits = point.extras["commits"]
    total = max(1, sum(commits.values()))
    return {
        "abort_rate": point.abort_rate,
        "update_tps": point.throughput * commits.get("update", 0) / total,
        "update_p95_ms": point.extras["p95_ms"].get("update"),
        "update_p50_ms": point.extras["p50_ms"].get("update"),
        "certification_aborts": m.get("certification_aborts"),
        "salvaged_total": m.get("salvaged_total"),
        "salvage_rejects": m.get("salvage_rejects"),
        "reordered_total": m.get("reordered_total"),
        "deferred_ww_total": m.get("deferred_ww_total"),
        "batch_window": m.get("batch_window"),
    }


def run_contention(duration: float = 6.0, warmup: float = 1.5) -> dict:
    """Before/after contention comparison -> results/generated/contention.json."""
    before = _contention_summary(_run_contention_point(False, duration, warmup))
    after = _contention_summary(_run_contention_point(True, duration, warmup))
    # the sweep's batch-8 point, run here so the report never depends on
    # what ran before it (obs off: the sweep asserts monitoring does not
    # move it)
    b8 = _run_point(8, obs=False)
    anchor = {
        "source": "batching sweep point 8 (1-core replicas)",
        "abort_rate": b8.abort_rate,
        "update_p95_ms": b8.extras["p95_ms"].get("update"),
        "certification_aborts": b8.extras["metrics"].get("certification_aborts"),
    }

    report = {
        "offered_tps": OFFERED_TPS,
        "read_weight": READ_WEIGHT,
        "n_replicas": N_REPLICAS,
        "cpu_servers": CONTENTION_CPU_SERVERS,
        "bus_service_time": BUS_SERVICE_TIME,
        "batch_max_messages": 8,
        "batch_window": BATCH_WINDOW,
        "duration": duration,
        "warmup": warmup,
        "seed": 0,
        "baseline_anchor": anchor,
        "before": before,
        "after": after,
        # factors are null when the after side reached zero (the cut is
        # then unbounded; null keeps the file strict JSON)
        "reduction": {
            "abort_rate_factor": (
                before["abort_rate"] / after["abort_rate"]
                if after["abort_rate"]
                else None
            ),
            "certification_abort_factor": (
                before["certification_aborts"]
                / after["certification_aborts"]
                if after["certification_aborts"]
                else None
            ),
        },
    }
    GENERATED.mkdir(parents=True, exist_ok=True)
    (GENERATED / "contention.json").write_text(
        json.dumps(report, indent=2, allow_nan=False)
    )
    return report


def test_contention_salvage():
    report = run_contention()
    before, after = report["before"], report["after"]
    print(
        "contention before: abort=%.4f cert_aborts=%s p95=%.1f tps=%.1f"
        % (
            before["abort_rate"],
            before["certification_aborts"],
            before["update_p95_ms"],
            before["update_tps"],
        )
    )
    print(
        "contention after:  abort=%.4f cert_aborts=%s p95=%.1f tps=%.1f "
        "salvaged=%s reordered=%s deferred=%s"
        % (
            after["abort_rate"],
            after["certification_aborts"],
            after["update_p95_ms"],
            after["update_tps"],
            after["salvaged_total"],
            after["reordered_total"],
            after["deferred_ww_total"],
        )
    )
    # the contention engine earns its keep: >2x cut in certification
    # aborts AND in the overall abort rate, at equal offered load
    assert after["certification_aborts"] * 2 < before["certification_aborts"]
    assert after["abort_rate"] * 2 < before["abort_rate"]
    # ... without giving the latency back (2% tolerance for the tail of
    # re-homed commits; the anchor's 1-core p95 bounds it loosely too)
    assert after["update_p95_ms"] <= before["update_p95_ms"] * 1.02
    assert after["update_p95_ms"] <= report["baseline_anchor"]["update_p95_ms"]
    # the machinery actually engaged
    assert after["salvaged_total"] > 0
    assert after["reordered_total"] > 0
    assert after["deferred_ww_total"] > 0
    # and the before side ran with all of it off
    assert before["salvaged_total"] == 0
    assert before["reordered_total"] == 0
    assert before["deferred_ww_total"] == 0


def test_contention_anchor_needs_no_earlier_sweep(tmp_path, monkeypatch):
    """With no batching sweep output on disk the report still carries
    its anchor, so the p95 assertion above runs in a fresh checkout."""
    monkeypatch.setitem(globals(), "GENERATED", tmp_path)
    report = run_contention(duration=1.0, warmup=0.25)
    assert report["baseline_anchor"]["update_p95_ms"] is not None
    assert json.loads((tmp_path / "contention.json").read_text()) == report


# ---------------------------------------------------------------------------
# Canonical points for the unified suite runner (repro.bench.suite)
# ---------------------------------------------------------------------------

CANONICAL_BATCH = 8


def canonical_point(quick: bool = True) -> dict:
    """Batching anchor: the batch=8 point with phase attribution."""
    duration, warmup = (3.0, 0.75) if quick else (6.0, 1.5)
    workload = make_mixed_workload(read_weight=READ_WEIGHT)
    point = run_sirep(
        workload,
        OFFERED_TPS,
        _config(CANONICAL_BATCH, obs=True),
        duration=duration,
        warmup=warmup,
        label=f"batch={CANONICAL_BATCH}",
        profile=True,
    )
    return {
        "config": {
            "batch_max_messages": CANONICAL_BATCH,
            "offered_tps": OFFERED_TPS,
            "n_replicas": N_REPLICAS,
            "read_weight": READ_WEIGHT,
            "duration": duration,
            "warmup": warmup,
            "seed": 0,
        },
        "metrics": {
            "throughput_tps": point.throughput,
            "update_tps": _update_tps(point),
            "update_p50_ms": point.extras["p50_ms"].get("update"),
            "update_p95_ms": point.extras["p95_ms"].get("update"),
            "read_p95_ms": point.extras["p95_ms"].get("read-only"),
            "abort_rate": point.abort_rate,
        },
        "profile": point.extras["profile"],
    }


def canonical_contention_point(quick: bool = True) -> dict:
    """Contention anchor: the knobs-on side of the salvage comparison."""
    duration, warmup = (3.0, 0.75) if quick else (6.0, 1.5)
    point = _run_contention_point(True, duration, warmup, profile=True)
    metrics = dict(_contention_summary(point))
    return {
        "config": {
            "offered_tps": OFFERED_TPS,
            "n_replicas": N_REPLICAS,
            "cpu_servers": CONTENTION_CPU_SERVERS,
            "read_weight": READ_WEIGHT,
            "knobs_on": True,
            "duration": duration,
            "warmup": warmup,
            "seed": 0,
        },
        "metrics": metrics,
        "profile": point.extras["profile"],
    }


if __name__ == "__main__":
    import sys

    quick = "--quick" in sys.argv
    report = run_contention(
        duration=3.0 if quick else 6.0, warmup=1.0 if quick else 1.5
    )
    print(json.dumps(report, indent=2))
