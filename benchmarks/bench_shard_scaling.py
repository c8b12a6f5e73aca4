"""Sharded SI-Rep scaling — aggregate update throughput vs group count.

The unsharded cluster certifies every writeset in one total order, so
update capacity is flat no matter how many replicas are added (§6.3:
adding replicas helps reads, not updates).  Partitioning the tables
over independent replication groups splits the certification order: on
a fully partitioned update-only workload (every transaction touches a
single group), aggregate update-commit throughput should scale
near-linearly with the number of groups at fixed per-group size.

Setup: 3 replicas per group, the Fig. 7 cost model, 10 tables per group
with a key space wide enough that write-write conflicts stay rare, and
an offered load (600 tps) that saturates the 1- and 2-group configs.
"""

import json
import pathlib

from repro.bench.costs import MicroCost
from repro.bench.harness import run_sirep
from repro.core import ClusterConfig
from repro.shard import ShardConfig
from repro.workloads.sharded import make_partitioned_workload, make_table_map

#: regenerated by every run (gitignored)
GENERATED = pathlib.Path(__file__).resolve().parent.parent / "results" / "generated"

GROUP_COUNTS = (1, 2, 4)
REPLICAS_PER_GROUP = 3
TABLES_PER_GROUP = 10
ROWS_PER_TABLE = 5000
OFFERED_TPS = 600.0


def _config(n_groups: int) -> ShardConfig:
    return ShardConfig(
        n_groups=n_groups,
        group=ClusterConfig(
            n_replicas=REPLICAS_PER_GROUP, cost_model=lambda _i: MicroCost(), seed=0
        ),
        partition="explicit",
        table_map=make_table_map(n_groups, TABLES_PER_GROUP),
    )


def _sweep():
    points = {}
    for n_groups in GROUP_COUNTS:
        workload = make_partitioned_workload(
            n_groups,
            tables_per_group=TABLES_PER_GROUP,
            rows_per_table=ROWS_PER_TABLE,
        )
        points[n_groups] = run_sirep(
            workload, OFFERED_TPS, _config(n_groups), duration=5.0, warmup=1.0
        )
    return points


def test_shard_scaling(benchmark):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    base = points[1].throughput
    ratios = {g: points[g].throughput / base for g in GROUP_COUNTS}
    for g in GROUP_COUNTS:
        p = points[g]
        print(
            f"groups={g}: {p.throughput:.1f} tps committed "
            f"(x{ratios[g]:.2f}), abort rate {p.abort_rate:.3f}"
        )

    GENERATED.mkdir(parents=True, exist_ok=True)
    (GENERATED / "shard_scaling.json").write_text(
        json.dumps(
            {
                "offered_tps": OFFERED_TPS,
                "n_replicas": REPLICAS_PER_GROUP,
                "points": {
                    str(g): {
                        "throughput": points[g].throughput,
                        "speedup": ratios[g],
                        "update_rt_ms": points[g].rt("update"),
                        "abort_rate": points[g].abort_rate,
                        "extras": points[g].extras,
                    }
                    for g in GROUP_COUNTS
                },
            },
            indent=2,
        )
    )

    # near-linear update scaling once certification is per-group
    assert ratios[2] >= 1.6
    assert ratios[4] >= 2.5
    # the workload is fully partitioned: the router never saw a
    # cross-shard write attempt
    for g in GROUP_COUNTS:
        assert points[g].extras["rejected_cross_shard_writes"] == 0


# ---------------------------------------------------------------------------
# Canonical point for the unified suite runner (repro.bench.suite)
# ---------------------------------------------------------------------------

CANONICAL_GROUPS = 2


def canonical_point(quick: bool = True) -> dict:
    """Shard-scaling anchor: 2 groups, router spans stitched to branches."""
    duration, warmup = (2.5, 0.5) if quick else (5.0, 1.0)
    rows_per_table = 1000 if quick else ROWS_PER_TABLE
    workload = make_partitioned_workload(
        CANONICAL_GROUPS,
        tables_per_group=TABLES_PER_GROUP,
        rows_per_table=rows_per_table,
    )
    point = run_sirep(
        workload,
        OFFERED_TPS,
        _config(CANONICAL_GROUPS),
        duration=duration,
        warmup=warmup,
        profile=True,
    )
    return {
        "config": {
            "n_groups": CANONICAL_GROUPS,
            "n_replicas": REPLICAS_PER_GROUP,
            "tables_per_group": TABLES_PER_GROUP,
            "rows_per_table": rows_per_table,
            "offered_tps": OFFERED_TPS,
            "duration": duration,
            "warmup": warmup,
            "seed": 0,
        },
        "metrics": {
            "throughput_tps": point.throughput,
            "update_rt_ms": point.rt("update"),
            "abort_rate": point.abort_rate,
            "rejected_cross_shard_writes": point.extras[
                "rejected_cross_shard_writes"
            ],
        },
        "profile": point.extras["profile"],
    }
