"""Honest wall-clock numbers: the protocol on real sockets and timers.

Every other bench in the suite measures *virtual* seconds on the
discrete-event kernel — deterministic, machine-independent, and by
construction unable to lie about scheduling.  This bench runs the same
protocol, byte for byte, on :class:`repro.runtime.AsyncioRuntime`: real
``loop.call_later`` timers, real TCP frames between clients, replicas
and the GCS sequencer, real ``os.fsync`` behind the durable writeset
log.  The numbers are genuine elapsed time on whatever machine runs
them, so:

* the envelope carries ``runtime: "wall"`` and the suite refuses to
  band-compare it against any sim baseline (``runtime_mismatch``);
* it is excluded from the default deterministic sweep
  (:data:`repro.bench.suite.WALL_BENCHES`) and runs in its own CI lane
  with very wide tolerance bands;
* the assertions defend liveness (non-zero committed update
  throughput, bounded aborts), never a latency trajectory.
"""

import json
import tempfile

from repro.bench.harness import run_sirep
from repro.core import ClusterConfig
from repro.gcs import GcsConfig
from repro.workloads.micro import make_workload

N_REPLICAS = 3
OFFERED_TPS = 120.0
N_CLIENTS = 6


def _update_tps(point) -> float:
    commits = point.extras["commits"]
    total = sum(commits.values())
    if not total:
        return 0.0
    return point.throughput * commits.get("update", 0) / total


def run_wall_point(duration: float, warmup: float, seed: int = 0):
    """One measured point on the wall-clock runtime.

    ``duration``/``warmup`` are REAL seconds here.  The durable log
    writes to a throwaway directory with ``fsync`` forced on (the
    cluster does that itself whenever clock == wall and a log dir is
    set), so the commit path pays for genuine durability.
    """
    with tempfile.TemporaryDirectory(prefix="bench-realtime-") as tmp:
        from repro.durable.store import DurabilityConfig

        return run_sirep(
            make_workload(),
            OFFERED_TPS,
            ClusterConfig(
                n_replicas=N_REPLICAS,
                gcs=GcsConfig(batch_max_messages=4, batch_window=0.002),
                seed=seed,
                runtime="wall",
                durability=DurabilityConfig(log_dir=tmp),
            ),
            duration=duration,
            warmup=warmup,
            label="wall",
            n_clients=N_CLIENTS,
        )


def canonical_point(quick: bool = True) -> dict:
    """Wall-clock anchor for the unified suite runner."""
    duration, warmup = (3.0, 0.5) if quick else (8.0, 1.5)
    point = run_wall_point(duration, warmup)
    update_tps = _update_tps(point)
    payload = {
        "config": {
            "offered_tps": OFFERED_TPS,
            "n_replicas": N_REPLICAS,
            "n_clients": N_CLIENTS,
            "duration": duration,
            "warmup": warmup,
            "seed": 0,
        },
        "runtime": "wall",
        "metrics": {
            "throughput_tps": point.throughput,
            "update_tps": update_tps,
            "update_p50_ms": point.extras["p50_ms"].get("update"),
            "update_p95_ms": point.extras["p95_ms"].get("update"),
            "abort_rate": point.abort_rate,
        },
    }
    # liveness is the contract: a wall run that commits nothing is a
    # broken runtime, not a slow machine
    assert update_tps > 0.0, "wall-clock run committed no updates"
    return payload


if __name__ == "__main__":
    import sys

    print(json.dumps(canonical_point(quick="--full" not in sys.argv), indent=2))
