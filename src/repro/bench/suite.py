"""Unified benchmark suite runner: one entrypoint, one rule.

``python -m repro.bench.suite --quick`` executes each benchmark's
canonical point (batching, contention, read_scaling, shard_scaling,
recovery), stamps the result with config/seed/git metadata, and writes
one strict-JSON ``BENCH_<name>.json`` per benchmark at the repo root
(gitignored scratch).  Every point runs on the discrete-event simulator
and is deterministic given its seeds, so the comparison against the
committed baseline under ``benchmarks/baselines/`` is equality: with
the ``git`` stamp left out, the envelope (metrics, config, mode and the
full profile) must equal the baseline value for value.  ``--check``
turns any difference, a missing baseline or a structurally invalid
result into a non-zero exit.  ``--update-baselines`` re-stamps the
baselines from the current run; a change that means to move the
measured behaviour says so and commits the new files with it.

Each ``BENCH_<name>.json`` carries::

    {
      "bench": "batching", "schema": 1, "quick": true, "seed": 0,
      "config": {...},            # the knobs the point was run with
      "git":    {commit, branch, dirty},
      "metrics": {...},           # flat numeric metric -> value
      "profile": {...} | null     # repro.obs.profile report (phase
    }                             #   attribution + queueing), if traced
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import pathlib
import subprocess
from typing import Iterable, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_BASELINE_DIR = DEFAULT_BENCH_DIR / "baselines"
DEFAULT_OUT_DIR = REPO_ROOT

SCHEMA = 1

#: attribution must sum to end-to-end within 1% (ISSUE-9 acceptance)
ATTRIBUTION_ERROR_MAX = 0.01

#: suite name -> (module stem under benchmarks/, canonical callable)
BENCHES: dict[str, tuple[str, str]] = {
    "batching": ("bench_batching", "canonical_point"),
    "contention": ("bench_batching", "canonical_contention_point"),
    "read_scaling": ("bench_read_scaling", "canonical_point"),
    "shard_scaling": ("bench_shard_scaling", "canonical_point"),
    "recovery": ("bench_recovery", "canonical_point"),
}

_MODULES: dict[str, object] = {}


def _load_bench_module(stem: str, bench_dir: pathlib.Path):
    """Import ``benchmarks/<stem>.py`` by file path (it is not a package)."""
    path = bench_dir / f"{stem}.py"
    key = str(path)
    if key in _MODULES:
        return _MODULES[key]
    spec = importlib.util.spec_from_file_location(f"_repro_suite_{stem}", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _MODULES[key] = module
    return module


def git_meta(repo: pathlib.Path = REPO_ROOT) -> dict:
    """Best-effort git stamp; all-None outside a working checkout."""

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=repo,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "branch": _git("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def run_bench(
    name: str,
    quick: bool = True,
    bench_dir: pathlib.Path = DEFAULT_BENCH_DIR,
) -> dict:
    """Run one canonical point and wrap it in the BENCH json envelope."""
    stem, fn_name = BENCHES[name]
    module = _load_bench_module(stem, bench_dir)
    payload = getattr(module, fn_name)(quick=quick)
    config = dict(payload.get("config", {}))
    return {
        "bench": name,
        "schema": SCHEMA,
        "quick": bool(quick),
        "seed": config.get("seed"),
        "config": config,
        "git": git_meta(),
        "metrics": dict(payload.get("metrics", {})),
        "profile": payload.get("profile"),
    }


def _is_number(value) -> bool:
    """Finite number: a NaN/inf metric is not a measurement."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_result(result: dict) -> list[str]:
    """Structural checks: strict JSON + phase-attribution integrity."""
    errors = []
    try:
        json.dumps(result, allow_nan=False)
    except (TypeError, ValueError) as exc:
        errors.append(f"not strict JSON: {exc}")
    for key in ("bench", "schema", "quick", "config", "git", "metrics"):
        if key not in result:
            errors.append(f"missing key {key!r}")
    if not any(_is_number(v) for v in (result.get("metrics") or {}).values()):
        errors.append("no numeric metrics")
    profile = result.get("profile")
    if profile is not None:
        attributed = False
        for group in ("updates", "reads"):
            stats = profile.get(group)
            if not stats or not stats.get("n"):
                continue
            if not stats.get("phases"):
                errors.append(f"{group}: no phase attribution")
                continue
            attributed = True
            err = stats.get("max_attribution_error")
            if err is None or err > ATTRIBUTION_ERROR_MAX:
                errors.append(
                    f"{group}: attribution error {err!r} exceeds "
                    f"{ATTRIBUTION_ERROR_MAX}"
                )
        if not attributed:
            errors.append("profile present but no attributed group")
    return errors


#: what a difference report shows for a key one side does not have
MISSING = "<missing>"


def _differences(base, cur, path: str = ""):
    """``(dotted path, baseline, current)`` for every leaf that differs.

    Leaves compare by their JSON text, so ``1`` and ``1.0`` differ as
    they would in the files; a key on one side only is reported with
    :data:`MISSING` on the other.
    """
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            sub = f"{path}.{key}" if path else key
            if key in base and key in cur:
                yield from _differences(base[key], cur[key], sub)
            else:
                yield sub, base.get(key, MISSING), cur.get(key, MISSING)
    elif json.dumps(base, sort_keys=True) != json.dumps(cur, sort_keys=True):
        yield path, base, cur


def compare_result(result: dict, baseline: dict) -> list[dict]:
    """Every value in which ``result`` differs from ``baseline``.

    The canonical points are deterministic, so the rule is equality:
    the whole envelope but its ``git`` stamp, after the same JSON round
    trip the files take.  Empty means the point reproduced its baseline.
    """
    current = json.loads(_dump(result))
    return [
        {"path": path, "baseline": base, "current": cur}
        for path, base, cur in _differences(
            {k: v for k, v in baseline.items() if k != "git"},
            {k: v for k, v in current.items() if k != "git"},
        )
    ]


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run_suite(
    names: Optional[Iterable[str]] = None,
    quick: bool = True,
    out_dir: pathlib.Path = DEFAULT_OUT_DIR,
    bench_dir: pathlib.Path = DEFAULT_BENCH_DIR,
    baseline_dir: pathlib.Path = DEFAULT_BASELINE_DIR,
    update_baselines: bool = False,
) -> dict:
    """Run the canonical points, emit BENCH files, compare to baselines."""
    names = list(names) if names else list(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown bench(es): {sorted(set(unknown))}")
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for name in names:
        result = run_bench(name, quick=quick, bench_dir=bench_dir)
        out_path = out_dir / f"BENCH_{name}.json"
        out_path.write_text(_dump(result))

        errors = validate_result(result)
        baseline_path = baseline_dir / f"BENCH_{name}.json"
        differences: list[dict] = []
        has_baseline = baseline_path.exists()
        if has_baseline:
            baseline = json.loads(baseline_path.read_text())
            differences = compare_result(result, baseline)
        if update_baselines:
            baseline_dir.mkdir(parents=True, exist_ok=True)
            baseline_path.write_text(_dump(result))
        results[name] = {
            "file": str(out_path),
            "errors": errors,
            "baseline": str(baseline_path) if has_baseline else None,
            "differences": differences,
            "metrics": result["metrics"],
        }

    ok = all(
        not entry["errors"] and not entry["differences"]
        for entry in results.values()
    )
    return {"schema": SCHEMA, "quick": quick, "ok": ok, "results": results}


def _render_report(report: dict, strict_baseline: bool) -> tuple[str, bool]:
    """Human-readable summary; second element is the pass/fail verdict."""
    lines = []
    passed = True
    for name, entry in report["results"].items():
        problems = list(entry["errors"])
        # repr, not a rounded format: a one-ulp move must be visible
        problems.extend(
            f"{d['path']}: {d['current']!r} vs baseline {d['baseline']!r}"
            for d in entry["differences"]
        )
        if entry["baseline"] is None:
            note = "no baseline"
            if strict_baseline:
                problems.append("no committed baseline")
        elif entry["differences"]:
            keys = sorted({d["path"].split(".")[0] for d in entry["differences"]})
            note = "baseline differs in " + ", ".join(keys)
        else:
            note = "equals baseline"
        verdict = "ok" if not problems else "FAIL"
        passed = passed and not problems
        n_metrics = sum(1 for v in entry["metrics"].values() if _is_number(v))
        lines.append(f"{name:<14} {verdict:<5} {n_metrics} metrics  [{note}]")
        lines.extend(f"    - {p}" for p in problems)
    return "\n".join(lines), passed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.suite",
        description=(
            "Run every benchmark's canonical point, write BENCH_<name>.json "
            "files, and compare them against committed baselines."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short measurement windows (the CI perf-trajectory mode)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(BENCHES),
        help="run a subset (repeatable)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero on an invalid result, any difference from the "
            "baseline, or a missing committed baseline"
        ),
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="re-stamp benchmarks/baselines/ from this run",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT_DIR)
    parser.add_argument(
        "--bench-dir", type=pathlib.Path, default=DEFAULT_BENCH_DIR
    )
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=DEFAULT_BASELINE_DIR
    )
    parser.add_argument(
        "--list", action="store_true", help="list bench names and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (stem, fn) in BENCHES.items():
            print(f"{name:<14} {stem}.{fn}")
        return 0

    # preserve the canonical BENCHES ordering whatever --only order was
    names = [n for n in BENCHES if args.only is None or n in args.only]
    report = run_suite(
        names,
        quick=args.quick,
        out_dir=args.out,
        bench_dir=args.bench_dir,
        baseline_dir=args.baseline_dir,
        update_baselines=args.update_baselines,
    )
    (args.out / "bench_suite_report.json").write_text(_dump(report))
    rendered, passed = _render_report(report, strict_baseline=args.check)
    print(rendered)
    if args.check and not passed:
        print("suite check FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
