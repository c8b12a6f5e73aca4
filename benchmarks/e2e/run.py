"""The repo benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--json OUT] [--smoke] [--repeat K]

With ``--workload`` the run happens in this process and the last line
of stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics.  Without it every workload of ``BENCHMARK.json`` runs
in a process of its own (``peak_rss_mb`` is per workload).  A failed
correctness or hygiene check exits non-zero and prints no metrics line.
README.md has the definitions and the reasons.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: everything the benchmark writes (log dirs of wall episodes, traces,
#: child results) lives here, inside the checkout; .gitignore names it
SCRATCH = ROOT / ".e2e_bench"
#: untraced episodes of a ``--trace 1`` run, ahead of the traced one
TRACE_RUN_EPISODES = 3


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_system():
    """Put ``src/`` on the path and import the benchmark's modules."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}: no src/repro here - the benchmark needs the system it measures")
    for entry in (str(ROOT / "src"), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import workloads

    return workloads


def episode_values(spec, episode) -> dict:
    """One episode's end-to-end figures at reference speed, and raw."""
    real_time = spec.runtime == "wall"
    latencies = episode.update_lat_ref() if real_time else episode.update_lat
    return {
        "setup_s": episode.setup.wall_ref_s,
        "update_tps": episode.update_commits / episode.measured.wall_ref_s,
        "update_p50_ms": 1000.0 * statistics.median(latencies),
        "cpu_ms_per_txn": 1000.0 * episode.measured.cpu_ref_s / episode.commits,
        "raw": {
            "setup_s": episode.setup.wall_s,
            "update_tps": episode.update_commits / episode.measured.wall_s,
            "update_p50_ms": 1000.0 * statistics.median(episode.update_lat),
            "cpu_ms_per_txn": 1000.0 * episode.measured.cpu_s / episode.commits,
            "kernel_ms": 1000.0 * statistics.mean(episode.measured.kernel),
            "fsync_ms": 1000.0 * statistics.median(episode.measured.fsync or [0.0]),
            "not_running_s": episode.measured.wall_s - episode.measured.cpu_s,
            # what the reference-speed figures were computed from
            "meters": {
                phase: {
                    "segments": meter.segments,
                    "kernel_s": meter.kernel,
                    "fsync_s": meter.fsync,
                }
                for phase, meter in (
                    ("setup", episode.setup), ("measured", episode.measured)
                )
            },
            "update_lat": episode.update_lat, "update_cuts": episode.update_cuts,
        },
        "update_commits": episode.update_commits,
        "commits": episode.commits,
        "failed": episode.failed,
    }


def end_to_end(values: list, contract: dict) -> dict:
    """The run's figure for each metric: the median of its episodes'
    reference-speed values (README.md, "Measurement design")."""
    out = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        if name == "peak_rss_mb":
            out[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            out[name] = statistics.median(v[name] for v in values)
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, contract: dict
) -> dict:
    workloads = import_system()
    imported_s = time.perf_counter() - _STARTED
    spec = workloads.WORKLOADS[name]
    workload = spec.make_workload()
    work = spec.work(seconds, smoke, trace)
    count = 2 if smoke else TRACE_RUN_EPISODES if trace else spec.episodes
    SCRATCH.mkdir(exist_ok=True)
    episodes = []
    for _ in range(count):
        gc.collect()
        episodes.append(workloads.run_episode(spec, workload, seed, work, SCRATCH))
    first = episodes[0]
    if spec.runtime == "sim":
        for index, episode in enumerate(episodes[1:], start=2):
            workloads.check(
                episode.fingerprint() == first.fingerprint(),
                f"episode {index} differs from episode 1 on the simulator",
            )
    values = [episode_values(spec, e) for e in episodes]
    result = {
        "workload": name,
        "seed": seed,
        "episodes": count,
        "work": work,
        "attempted": first.commits + first.failed,
        "failed": first.failed,
        "end_to_end": end_to_end(values, contract),
        "per_layer": None,
        "episode_values": values,
    }
    if trace:
        import trace as layer_trace

        gc.collect()
        tracer = layer_trace.Tracer()
        hooks = layer_trace.Hooks(tracer)
        saved = layer_trace.install(tracer)
        try:
            traced = workloads.run_episode(
                spec, workload, seed, work, SCRATCH, hooks=hooks
            )
        finally:
            layer_trace.restore(saved)
        if spec.runtime == "sim":
            workloads.check(
                traced.fingerprint() == first.fingerprint(),
                "the traced episode differs from the untraced ones on the simulator",
            )
        layers = layer_trace.layer_metrics(tracer, hooks, traced, spec.runtime)
        layers["runtime.loopback_rtt_us"] = (
            layer_trace.loopback_rtt_us(200 if smoke else 2000)
            if spec.runtime == "wall"
            else 0.0
        )
        times = [e.measured.wall_s for e in episodes]
        # from the untraced episodes: recording spans slows the start of
        # a traced episode more than its end
        layers["client.tps_last_over_first"] = statistics.median(
            e.tps_last_over_first() for e in episodes
        )
        layers["harness.import_s"] = imported_s
        layers["harness.episode_spread"] = max(times) / min(times)
        layers["trace.overhead_ratio"] = traced.measured.wall_ref_s / statistics.median(
            e.measured.wall_ref_s for e in episodes
        )
        layer_trace.write_trace(SCRATCH / f"trace-{name}.json", name, tracer, layers)
        result["per_layer"] = layers
    return result


def report(result: dict, contract: dict) -> str:
    """Human-readable lines, then the contract's one-line JSON object."""
    units = {
        m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
    }
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"episodes {result['episodes']}  work/episode {result['work']:g}"
    ]
    groups = [("end_to_end", result["end_to_end"])]
    if result["per_layer"] is not None:
        lines.append(
            f"  (end-to-end below is from {result['episodes']} episodes only; "
            "run without --trace for the benchmark's figures)"
        )
        groups.append(("per_layer", result["per_layer"]))
    for group, values in groups:
        declared = [m["name"] for m in contract[group]]
        if sorted(declared) != sorted(values):
            raise SystemExit(
                f"{group} metrics differ from BENCHMARK.json: "
                f"{sorted(set(declared) ^ set(values))}"
            )
        lines += [f"  {name:<32}{values[name]:>14.4f} {units[name]}" for name in declared]
    lines.append(
        f"  txns_attempted {result['attempted']}  txns_failed {result['failed']}"
    )
    last = groups[-1][1]
    lines.append(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in last.items()
                },
            },
            allow_nan=False,
        )
    )
    return "\n".join(lines)


def child(name: str, args, seed: int, out: Path) -> dict:
    """One workload in a process of its own; its output passes through."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--json", str(out),
    ] + (["--smoke"] if args.smoke else [])
    subprocess.run(command, check=True)
    return json.loads(out.read_text())


def spread(values: list) -> tuple:
    """(median, Q1, Q3, (Q3 - Q1) / median) as the acceptance rule takes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def repeat_table(sets: list, contract: dict, names: list) -> str:
    """Markdown rows: per workload x end-to-end metric, both sets'
    median, quartiles and spread, how much worse B's median is than A's,
    and the two questions asked of them."""
    rows = [
        "| workload | metric | A median [Q1, Q3] | A spread | B median [Q1, Q3] "
        "| B spread | B worse by | bound | spread <= bound | drift <= bound/2 |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name in names:
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = spread([run[key] for run in sets[0][name]])
            b = spread([run[key] for run in sets[1][name]])
            worse = (b[0] - a[0]) / a[0] * (1 if metric["better"] == "lower" else -1)
            answers = (max(a[3], b[3]) <= bound, abs(worse) <= bound / 2)
            rows.append(
                f"| {name} | {key} | {a[0]:.4f} [{a[1]:.4f}, {a[2]:.4f}] | {a[3]:.4f} "
                f"| {b[0]:.4f} [{b[1]:.4f}, {b[2]:.4f}] | {b[3]:.4f} | {worse:+.4f} "
                f"| {bound} | " + " | ".join("yes" if ok else "NO" for ok in answers) + " |"
            )
    return "\n".join(rows)


def repeat(args, contract: dict, names: list) -> None:
    """Two sets of ``--repeat`` full runs, same seeds in both; prints
    the table REPEATABILITY.md records."""
    SCRATCH.mkdir(exist_ok=True)
    sets = []
    for label in "AB":
        runs: dict = {name: [] for name in names}
        for k in range(args.repeat):
            for name in names:
                out = SCRATCH / f"repeat-{label}-{k}-{name}.json"
                runs[name].append(child(name, args, args.seed + k, out)["end_to_end"])
        sets.append(runs)
    print(
        f"\n## Two sets of {args.repeat} runs, "
        f"seeds {args.seed}..{args.seed + args.repeat - 1}\n"
    )
    print(repeat_table(sets, contract, names))


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="also write the full result here")
    parser.add_argument("--smoke", action="store_true", help="tiny episodes, R = 2")
    parser.add_argument("--repeat", type=int, help="two sets of K runs per workload")
    args = parser.parse_args(argv)
    import_system()
    selected = [args.workload] if args.workload else names
    if args.repeat:
        repeat(args, contract, selected)
        return 0
    if args.workload is None:
        SCRATCH.mkdir(exist_ok=True)
        results = {
            name: child(name, args, args.seed, SCRATCH / f"result-{name}.json")
            for name in names
        }
        if args.json:
            args.json.write_text(json.dumps(results, indent=1, allow_nan=False))
        return 0
    from workloads import BenchmarkCheckFailed

    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
            contract,
        )
    except BenchmarkCheckFailed as failure:
        print(f"CHECK FAILED on {args.workload}: {failure}", file=sys.stderr)
        return 1
    if args.json:
        args.json.write_text(json.dumps(result, indent=1, allow_nan=False))
    print(report(result, contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
