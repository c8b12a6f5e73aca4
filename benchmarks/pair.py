"""Paired end-to-end runs: this checkout against a base revision.

    python3 benchmarks/pair.py [--base REV] [--workload NAME ...]
        [--pairs N] [--seed S] [--smoke]

The base revision's files are exported (``git archive``) into
``.e2e_bench/base`` (gitignored), and the command ``BENCHMARK.json``
declares runs ``--workload W --seed S`` in each tree, in a process of
its own.  Pair ``i`` uses seed ``S + i`` in both trees, and the order
alternates (base first, then this checkout first: A B B A ...), so a
drift of the host over the session falls on both sides alike.

For each workload and end-to-end metric it prints the median of the
per-pair ratios (this checkout / base), how many pairs this checkout
won, their range, the base runs' spread ((Q3 - Q1) / median) and every
pair's two values; then the failed share of transactions on each side.
It exits 1 when a median ratio is worse than the metric's
``BENCHMARK.json`` bound, or when this checkout fails a larger share of
transactions.  It reads the last stdout line of each run and nothing
else: it imports nothing from the benchmark's directory.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASE = ROOT / ".e2e_bench" / "base"


def export(rev: str) -> Path:
    """A fresh copy of ``rev``'s committed files under ``BASE``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    if BASE.exists():
        shutil.rmtree(BASE)
    BASE.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(BASE, filter="data")
    return BASE


def run(tree: Path, command: list, workload: str, seed: int, smoke: bool) -> dict:
    """One benchmark run in ``tree``: its last stdout line, parsed."""
    args = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        args + (["--smoke"] if smoke else []), cwd=tree, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{tree}: {workload} seed {seed} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    line = done.stdout.strip().splitlines()[-1]
    return json.loads(line)


def ratios(metric: dict, pairs: list) -> dict:
    """The per-pair ratios of one metric and what the gate asks of them."""
    name = metric["name"]
    base = [b["metrics"][name]["value"] for b, _h in pairs]
    head = [h["metrics"][name]["value"] for _b, h in pairs]
    each = [h / b if b else float("inf") for b, h in zip(base, head)]
    lower = metric["better"] == "lower"
    median = statistics.median(each)
    worse = median - 1 if lower else 1 - median
    q1, mid, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    return {
        "name": name,
        "median": median,
        "wins": sum(1 for r in each if (r < 1 if lower else r > 1)),
        "range": (min(each), max(each)),
        "base_spread": (q3 - q1) / mid if mid else 0.0,
        "values": list(zip(base, head)),
        "too_worse": worse > metric["bound"],
        "bound": metric["bound"],
    }


def failed_share(runs: list) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def report(workload: str, seeds: range, rows: list, pairs: list) -> list:
    lines = [
        f"## {workload}: {len(pairs)} pairs, seeds {seeds.start}..{seeds.stop - 1}",
        "",
        "| metric | median head/base | head better | range | base spread | bound | per pair (base -> head) |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        per_pair = ", ".join(f"{b:.4g} -> {h:.4g}" for b, h in row["values"])
        flag = " **worse than bound**" if row["too_worse"] else ""
        lines.append(
            f"| {row['name']} | {row['median']:.3f}{flag} | {row['wins']}/{len(pairs)} "
            f"| {row['range'][0]:.3f}-{row['range'][1]:.3f} | {row['base_spread']:.3f} "
            f"| {row['bound']} | {per_pair} |"
        )
    base_failed = failed_share([b for b, _h in pairs])
    head_failed = failed_share([h for _b, h in pairs])
    lines += [
        "",
        f"failed share: base {base_failed:.4f}, head {head_failed:.4f}; attempted per pair: "
        + ", ".join(f"{b['attempted']}/{h['attempted']}" for b, h in pairs),
        "",
    ]
    return lines


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--smoke", action="store_true", help="tiny episodes (a dry run)")
    args = parser.parse_args(argv)
    base = export(args.base)
    seeds = range(args.seed, args.seed + args.pairs)
    failed = False
    for workload in args.workload or names:
        pairs = []
        for i, seed in enumerate(seeds):
            order = (base, ROOT) if i % 2 == 0 else (ROOT, base)
            got = {
                tree: run(tree, contract["command"], workload, seed, args.smoke)
                for tree in order
            }
            pairs.append((got[base], got[ROOT]))
        rows = [ratios(metric, pairs) for metric in contract["end_to_end"]]
        print("\n".join(report(workload, seeds, rows, pairs)), flush=True)
        more_failed = failed_share([h for _b, h in pairs]) > failed_share([b for b, _h in pairs])
        failed = failed or more_failed or any(row["too_worse"] for row in rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
