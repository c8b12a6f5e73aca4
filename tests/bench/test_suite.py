"""Unified suite runner: envelope validation, tolerance bands, CLI.

Band/validation logic is unit-tested on synthetic envelopes (no sim
runs); one real canonical point (micro_ops, the cheapest) exercises the
benchmarks/-loading path end to end.  The negative test — an injected
synthetic slowdown must trip the bands — runs through ``run_suite``
with a stubbed measurement, exactly the path the CI lane drives.
"""

import json

import pytest

import repro.bench.suite as suite
from repro.bench.suite import (
    BENCHES,
    compare_result,
    git_meta,
    run_bench,
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


# ---------------------------------------------------------------------- bands


def test_compare_within_band_passes():
    base = envelope(metrics={"throughput_tps": 100.0})
    cur = envelope(metrics={"throughput_tps": 108.0})  # +8% < 15%
    assert compare_result("batching", cur, base) == []


def test_compare_flags_out_of_band_both_directions():
    base = envelope(metrics={"throughput_tps": 100.0})
    for moved in (50.0, 200.0):  # regression AND "improvement" both flag
        violations = compare_result(
            "batching", envelope(metrics={"throughput_tps": moved}), base
        )
        assert [v["kind"] for v in violations] == ["out_of_band"]


def test_compare_flags_missing_metric_and_mode_mismatch():
    base = envelope(metrics={"throughput_tps": 100.0, "p95_ms": 20.0})
    cur = envelope(metrics={"throughput_tps": 100.0})
    kinds = {v["kind"] for v in compare_result("batching", cur, base)}
    assert kinds == {"missing"}
    full_run = envelope(quick=False)
    assert [v["kind"] for v in compare_result("batching", full_run, base)] == [
        "mode_mismatch"
    ]


def test_compare_flags_runtime_mismatch():
    """Wall seconds and sim seconds are different units: a result from
    one runtime never band-checks against a baseline from the other."""
    base = envelope(metrics={"throughput_tps": 100.0})  # implicit sim
    wall = envelope(metrics={"throughput_tps": 100.0})
    wall["runtime"] = "wall"
    assert [v["kind"] for v in compare_result("batching", wall, base)] == [
        "runtime_mismatch"
    ]
    # and a legacy baseline with no runtime key means sim
    sim_result = envelope(metrics={"throughput_tps": 100.0})
    sim_result["runtime"] = "sim"
    assert compare_result("batching", sim_result, base) == []


def test_micro_ops_wall_clock_band_is_wide():
    base = envelope(metrics={"indexed_us_depth1": 2.0})
    cur = envelope(metrics={"indexed_us_depth1": 7.0})  # 3.5x: machine noise
    assert compare_result("micro_ops", cur, base) == []


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
    violations = report["results"]["batching"]["violations"]
    assert violations and violations[0]["metric"] == "throughput_tps"


def test_injected_slowdown_trips_the_bands(tmp_path, stub_bench):
    """The CI negative test: x10 metrics must violate every band."""
    run_suite(
        ["batching"],
        out_dir=tmp_path,
        baseline_dir=tmp_path / "baselines",
        update_baselines=True,
    )
    report = run_suite(
        ["batching"],
        out_dir=tmp_path,
        baseline_dir=tmp_path / "baselines",
        inject_slowdown=["batching"],
    )
    assert not report["ok"]
    flagged = {v["metric"] for v in report["results"]["batching"]["violations"]}
    assert flagged == {"throughput_tps", "p95_ms"}
    emitted = json.loads((tmp_path / "BENCH_batching.json").read_text())
    assert emitted["config"]["injected_slowdown"] == 10.0


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


def test_micro_ops_canonical_point_for_real():
    """Cheapest real bench: loads benchmarks/bench_micro_ops.py by path."""
    result = run_bench("micro_ops", quick=True)
    assert result["bench"] == "micro_ops"
    assert validate_result(result) == []
    assert result["metrics"]["indexed_flatness_256_over_1"] > 0
    assert result["profile"] is None


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
    assert set(BENCHES) == {
        "batching",
        "contention",
        "read_scaling",
        "shard_scaling",
        "recovery",
        "micro_ops",
        "realtime",
    }


def test_wall_benches_excluded_from_default_sweep():
    """The default (no ``names``) sweep is the deterministic sim set;
    wall-clock benches only run when explicitly requested."""
    from repro.bench.suite import WALL_BENCHES

    assert WALL_BENCHES == {"realtime"}
    assert WALL_BENCHES < set(BENCHES)
