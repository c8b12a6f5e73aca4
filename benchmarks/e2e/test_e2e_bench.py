"""Checks of the benchmark itself.  Not part of tier-1; run explicitly:

    python -m pytest benchmarks/e2e/test_e2e_bench.py
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def smoke(workload, seed=0, trace=0, out=None):
    """One ``--smoke`` invocation; returns the last stdout line, parsed strictly."""
    command = [
        sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ] + (["--json", str(out)] if out else [])
    done = subprocess.run(command, capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_declared_metric(workload, trace, group):
    line = smoke(workload, trace=trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] >= 0
    declared = {m["name"]: m["unit"] for m in CONTRACT[group]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])
    if trace:
        shares = sum(v["value"] for k, v in line["metrics"].items() if k.startswith("share."))
        assert shares == pytest.approx(1.0, abs=0.02)
        assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def _sim_counts(path):
    return [
        (e["update_commits"], e["commits"], e["failed"], e["update_p50_ms"])
        for e in json.loads(path.read_text())["episode_values"]
    ]


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w.startswith("sim-")])
def test_seed_decides_the_sim_streams(workload, tmp_path):
    for label, seed in (("a", 0), ("b", 0), ("c", 1)):
        smoke(workload, seed=seed, out=tmp_path / f"{label}.json")
    a, b, c = (_sim_counts(tmp_path / f"{label}.json") for label in "abc")
    assert a == b, "same seed must give the same counts and virtual latencies"
    assert a != c, "another seed must draw other streams"


def test_shims_are_restored_by_identity():
    sys.path.insert(0, str(HERE))
    import run

    run.import_system()
    import trace as layer_trace

    before = [vars(owner)[attr] for owner, attr, *_ in layer_trace.SHIMS]
    result = run.run_workload(
        "sim-update", seed=0, seconds=1, trace=True, smoke=True, contract=CONTRACT
    )
    assert result["per_layer"]["core.certify_calls_per_update"] > 0  # shims were live
    after = [vars(owner)[attr] for owner, attr, *_ in layer_trace.SHIMS]
    assert all(x is y for x, y in zip(before, after))
