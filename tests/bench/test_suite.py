"""Unified suite runner: envelope validation, the exact gate, CLI.

Validation and comparison are unit-tested on synthetic envelopes (no
sim runs).  The negative test (a baseline moved by one ulp must fail
``--check`` and be named) runs through ``main`` with a stubbed
measurement.  Two real canonical points, each run under two hash seeds
in subprocesses, exercise the benchmarks/-loading path end to end and
guard the premise of the exact gate: a point is a function of its
config and seeds, not of the interpreter's hash seed.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import repro.bench.suite as suite
from repro.bench.suite import (
    BENCHES,
    compare_result,
    git_meta,
    run_suite,
    validate_result,
)


def envelope(metrics=None, profile="default", **overrides):
    if profile == "default":
        profile = {
            "schema": 1,
            "n_profiles": 3,
            "statuses": {"txn:ok": 3},
            "updates": {
                "n": 3,
                "total_ms": {"mean": 10.0, "p50": 9.0, "p95": 14.0},
                "phases": {"commit": {"mean_ms": 5.0}},
                "tail": {"n": 1, "dominant_phase": "commit", "phase_ms": {}},
                "max_attribution_error": 0.0,
            },
        }
    out = {
        "bench": "batching",
        "schema": 1,
        "quick": True,
        "seed": 0,
        "config": {"seed": 0},
        "git": {"commit": "abc", "branch": "main", "dirty": False},
        "metrics": metrics or {"throughput_tps": 100.0, "p95_ms": 20.0},
        "profile": profile,
    }
    out.update(overrides)
    return out


# ----------------------------------------------------------------- validation


def test_validate_accepts_good_envelope():
    assert validate_result(envelope()) == []


def test_validate_flags_nan_and_missing_keys():
    bad = envelope(metrics={"p95_ms": float("nan")})
    errors = validate_result(bad)
    assert any("strict JSON" in e for e in errors)
    assert any("no numeric metrics" in e for e in errors)
    incomplete = envelope()
    del incomplete["git"]
    assert any("git" in e for e in validate_result(incomplete))


def test_validate_enforces_attribution_error_bound():
    bad = envelope()
    bad["profile"]["updates"]["max_attribution_error"] = 0.05  # > 1%
    assert any("attribution error" in e for e in validate_result(bad))
    unattributed = envelope()
    unattributed["profile"]["updates"]["phases"] = {}
    assert any(
        "no phase attribution" in e for e in validate_result(unattributed)
    )


# ------------------------------------------------------------------ the gate


def test_compare_within_band_passes():
    """The band is zero wide: an envelope equal to its baseline in every
    value but the ``git`` stamp passes."""
    base = envelope(metrics={"throughput_tps": 100.0})
    cur = envelope(
        metrics={"throughput_tps": 100.0},
        git={"commit": "def", "branch": "topic", "dirty": True},
    )
    assert compare_result(cur, base) == []


def test_compare_flags_out_of_band_both_directions():
    """Any move is out of band, up or down, however small, and the
    report carries both values."""
    base = envelope(metrics={"throughput_tps": 100.0})
    for moved in (math.nextafter(100.0, 0.0), math.nextafter(100.0, 200.0)):
        differences = compare_result(
            envelope(metrics={"throughput_tps": moved}), base
        )
        assert differences == [
            {
                "path": "metrics.throughput_tps",
                "baseline": 100.0,
                "current": moved,
            }
        ]
    # an int that became a float is a change in the files too
    as_float = compare_result(
        envelope(metrics={"n": 3.0}), envelope(metrics={"n": 3})
    )
    assert [d["path"] for d in as_float] == ["metrics.n"]


def test_compare_flags_missing_metric_and_mode_mismatch():
    base = envelope(metrics={"throughput_tps": 100.0, "p95_ms": 20.0})
    cur = envelope(metrics={"throughput_tps": 100.0})
    assert compare_result(cur, base) == [
        {"path": "metrics.p95_ms", "baseline": 20.0, "current": suite.MISSING}
    ]
    full_run = envelope(quick=False)
    assert [d["path"] for d in compare_result(full_run, base)] == ["quick"]


def test_compare_flags_runtime_mismatch():
    """A point run differently (another runtime, another window) differs
    in its ``config`` and is named by that key."""
    wall = envelope(config={"seed": 0, "runtime": "wall"})
    assert compare_result(wall, envelope()) == [
        {"path": "config.runtime", "baseline": suite.MISSING, "current": "wall"}
    ]


# ------------------------------------------------------------- orchestration


@pytest.fixture
def stub_bench(monkeypatch):
    """Replace the measurement with a canned envelope; keep the rest."""
    state = {"metrics": {"throughput_tps": 100.0, "p95_ms": 20.0}}

    def fake_run_bench(name, quick=True, bench_dir=None):
        return envelope(bench=name, metrics=dict(state["metrics"]))

    monkeypatch.setattr(suite, "run_bench", fake_run_bench)
    return state


def test_run_suite_emits_bench_files_and_baselines(tmp_path, stub_bench):
    report = run_suite(
        ["batching", "contention"],
        quick=True,
        out_dir=tmp_path,
        baseline_dir=tmp_path / "baselines",
        update_baselines=True,
    )
    assert report["ok"]
    for name in ("batching", "contention"):
        emitted = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
        assert emitted["metrics"]["throughput_tps"] == 100.0
        assert (tmp_path / "baselines" / f"BENCH_{name}.json").exists()


def test_run_suite_flags_drift_against_baseline(tmp_path, stub_bench):
    run_suite(
        ["batching"],
        out_dir=tmp_path,
        baseline_dir=tmp_path / "baselines",
        update_baselines=True,
    )
    stub_bench["metrics"]["throughput_tps"] = 10.0  # 10x regression
    report = run_suite(
        ["batching"], out_dir=tmp_path, baseline_dir=tmp_path / "baselines"
    )
    assert not report["ok"]
    differences = report["results"]["batching"]["differences"]
    assert [d["path"] for d in differences] == ["metrics.throughput_tps"]


def test_a_value_moved_by_one_ulp_fails_the_check(tmp_path, stub_bench, capsys):
    """The negative test: a baseline in which one metric, or separately
    one profile value, is one ulp off fails ``--check``, and the report
    names the value with both figures."""
    args = [
        "--quick",
        "--only",
        "batching",
        "--out",
        str(tmp_path),
        "--baseline-dir",
        str(tmp_path / "baselines"),
    ]
    assert suite.main(args + ["--update-baselines"]) == 0
    path = tmp_path / "baselines" / "BENCH_batching.json"
    pristine = path.read_text()
    for keys in (("metrics", "p95_ms"), ("profile", "updates", "total_ms", "p95")):
        baseline = json.loads(pristine)
        node = baseline
        for key in keys[:-1]:
            node = node[key]
        measured = node[keys[-1]]
        node[keys[-1]] = math.nextafter(measured, math.inf)
        path.write_text(json.dumps(baseline))
        capsys.readouterr()
        assert suite.main(args + ["--check"]) == 1
        out = capsys.readouterr().out
        assert (
            f"{'.'.join(keys)}: {measured!r} vs baseline "
            f"{node[keys[-1]]!r}" in out
        ), out
    path.write_text(pristine)
    assert suite.main(args + ["--check"]) == 0


def test_run_suite_rejects_unknown_bench(tmp_path):
    with pytest.raises(KeyError):
        run_suite(["nope"], out_dir=tmp_path)


def test_cli_list_and_check_exit_codes(tmp_path, stub_bench, capsys):
    assert suite.main(["--list"]) == 0
    assert "batching" in capsys.readouterr().out
    args = [
        "--quick",
        "--only",
        "batching",
        "--out",
        str(tmp_path),
        "--baseline-dir",
        str(tmp_path / "baselines"),
    ]
    # no committed baseline: fine without --check, fatal with it
    assert suite.main(args) == 0
    assert suite.main(args + ["--check"]) == 1
    assert suite.main(args + ["--update-baselines"]) == 0
    assert suite.main(args + ["--check"]) == 0
    assert (tmp_path / "bench_suite_report.json").exists()


# ----------------------------------------------------------------- end to end


def test_git_meta_stamps_commit():
    meta = git_meta()
    assert set(meta) == {"commit", "branch", "dirty"}
    assert meta["commit"] is None or len(meta["commit"]) == 40


def test_canonical_points_do_not_depend_on_the_hash_seed(tmp_path):
    """Two real points, loaded from benchmarks/ by path, run by the CLI
    under two ``PYTHONHASHSEED`` values: the envelopes are valid and,
    ``git`` aside, equal."""
    names = ("read_scaling", "recovery")
    runs = []
    for seed in ("1", "7"):
        out = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench.suite", "--quick", "--out", str(out)]
            + [arg for name in names for arg in ("--only", name)],
            capture_output=True,
            text=True,
            cwd=suite.REPO_ROOT,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads((out / "bench_suite_report.json").read_text())
        assert [report["results"][n]["errors"] for n in names] == [[], []]
        runs.append(
            {n: json.loads((out / f"BENCH_{n}.json").read_text()) for n in names}
        )
    for name in names:
        assert compare_result(runs[1][name], runs[0][name]) == [], name


def test_run_sirep_profile_extras():
    """``profile=True`` folds the phase attribution into extras."""
    from repro.bench.harness import run_sirep
    from repro.core import ClusterConfig
    from repro.workloads.micro import make_mixed_workload

    point = run_sirep(
        make_mixed_workload(read_weight=0.3),
        80.0,
        ClusterConfig(n_replicas=3),
        duration=2.0,
        warmup=0.5,
        profile=True,
    )
    updates = point.extras["profile"]["updates"]
    assert updates["n"] > 0
    assert updates["phases"]
    assert updates["max_attribution_error"] <= 0.01


def test_bench_registry_names_match_issue():
    """The suite is the five simulated points; wall-clock numbers are
    the repo benchmark's (benchmarks/e2e), not the exact gate's."""
    assert list(BENCHES) == [
        "batching",
        "contention",
        "read_scaling",
        "shard_scaling",
        "recovery",
    ]
