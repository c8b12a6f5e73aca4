"""Which functions in ``src/repro`` does anything run?

    python benchmarks/reachability.py [--check ALLOWLIST] [--out DIR | --from DIR]

Runs every entry point a user or CI starts (the repo benchmark's smoke
runs, the figure sweep, the benchmark suite, the examples, the README's
obs CLIs and the pytest benchmarks) and then the test suites (tier-1 and
``-m slow``), each in a process of its own under ``sys.setprofile`` and
``threading.setprofile``.  A generated ``sitecustomize.py`` on
``PYTHONPATH`` installs the profiler in every Python process the runs
start, so subprocesses are followed too; at exit each process writes
the ``src/repro`` code objects it entered.  Standard library only.

Every ``def`` in ``src/repro`` then falls in one of three classes:
reached by an entry point, reached only by tests, or reached by
nothing.  The last two are printed by file, with line counts.

``--check ALLOWLIST`` exits 1 when a function in either list has no
allow-list line in that list's section giving a reason, or when an
allow-list line covers no function (a stale reason)::

    [reached by nothing]
    src/repro/obs/trace.py::Span.__repr__   a repr, for debugging
    [reached only by tests]
    src/repro/core/_reference.py::*         reference oracle

A pattern is ``file::qualname`` matched with ``fnmatch``; nested
functions are named ``outer.inner``.  ``--out DIR`` keeps the per-process
records, and ``--from DIR`` analyses records kept by an earlier run
instead of running anything (records name files relative to the
checkout, so a copy of the checkout can be checked against them as long
as the functions it shares keep their lines).

Test outcomes do not matter here, only which functions ran; a run that
exits non-zero is reported and the probe carries on.  A full run takes
about 12 minutes on a 2-core VM.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: what a user or CI runs; each is (label, argv after the interpreter)
ENTRY_POINTS = [
    ("e2e smoke", ["benchmarks/e2e/run.py", "--smoke"]),
    ("e2e smoke traced", ["benchmarks/e2e/run.py", "--smoke", "--trace", "1"]),
    ("figures", ["-m", "repro.bench", "all", "--fast"]),
    ("bench suite", ["-m", "repro.bench.suite", "--quick"]),
    *(
        (f"example {path.name}", [f"examples/{path.name}"])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
    # the README's obs CLIs, on the files examples/trace_quickstart.py wrote
    ("flight CLI", ["-m", "repro.obs.flight", "results/flight_quickstart.json", "--tail", "5"]),
    ("profile CLI", ["-m", "repro.obs.profile", "results/trace_quickstart.jsonl", "--top", "3"]),
    (
        "profile CLI json",
        ["-m", "repro.obs.profile", "results/trace_quickstart.jsonl",
         "--json", "results/profile_quickstart.json"],
    ),
    (
        "profile CLI compare",
        ["-m", "repro.obs.profile", "--compare",
         "results/profile_quickstart.json", "results/profile_quickstart.json"],
    ),
    # pytest-benchmark pauses profilers while it times, so time nothing
    (
        "pytest benchmarks",
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         *sorted(f"benchmarks/{path.name}" for path in (ROOT / "benchmarks").glob("bench_*.py"))],
    ),
]

TEST_RUNS = [
    ("tier-1", ["-m", "pytest", "-q", "-p", "no:cacheprovider"]),
    ("slow", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "slow"]),
]

GROUPS = {"entry": ENTRY_POINTS, "tests": TEST_RUNS}

NOTHING = "reached by nothing"
ONLY_TESTS = "reached only by tests"

SITECUSTOMIZE = '''\
import atexit, os, sys, tempfile, threading

_codes = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    root = os.environ["REACHABILITY_ROOT"]
    lines = sorted({
        f"{os.path.relpath(code.co_filename, root)}\\t{code.co_firstlineno}\\n"
        for code in list(_codes.values())
        if os.path.abspath(code.co_filename).startswith(os.environ["REACHABILITY_PACKAGE"])
    })
    fd, _ = tempfile.mkstemp(suffix=".tsv", dir=os.environ["REACHABILITY_OUT"])
    with os.fdopen(fd, "w") as handle:
        handle.writelines(lines)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def definitions() -> dict:
    """``(relative file, first line) -> (name, lines)`` for every def.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        visit(ast.parse(file.read_text(), str(file)), path, "")
    return found


def record(out: Path) -> None:
    """Run every entry point and test run, profiled, into ``out/<group>``."""
    site = out / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    paths = [str(site), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REACHABILITY_ROOT"] = str(ROOT)
    env["REACHABILITY_PACKAGE"] = str(PACKAGE) + os.sep
    for group, runs in GROUPS.items():
        env["REACHABILITY_OUT"] = str(out / group)
        (out / group).mkdir()  # records of an earlier run would mix in
        for label, argv in runs:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(
                f"  {group:<6} {label:<32} {status:<8} {time.perf_counter() - started:7.1f} s",
                file=sys.stderr, flush=True,
            )


def reached(directory: Path) -> set:
    """``(relative file, first line)`` pairs the records in ``directory`` name."""
    keys = set()
    for file in directory.glob("*.tsv"):
        for line in file.read_text().splitlines():
            path, first = line.split("\t")
            keys.add((path, int(first)))
    return keys


def classify(out: Path) -> dict:
    """``{NOTHING: [...], ONLY_TESTS: [...]}`` of ``(file, first line, name, lines)``."""
    by_entry, by_tests = reached(out / "entry"), reached(out / "tests")
    lists = {NOTHING: [], ONLY_TESTS: []}
    for key, (name, lines) in sorted(definitions().items()):
        if key in by_entry:
            continue
        lists[ONLY_TESTS if key in by_tests else NOTHING].append((*key, name, lines))
    return lists


def report(lists: dict) -> str:
    out = []
    for title, functions in lists.items():
        out.append(
            f"{title}: {len(functions)} functions, "
            f"{sum(f[3] for f in functions)} lines"
        )
        files: dict = {}
        for function in functions:
            files.setdefault(function[0], []).append(function)
        for path, members in files.items():
            out.append(f"  {path}: {len(members)} functions, {sum(m[3] for m in members)} lines")
            out += [f"    {first:>5}  {name} ({lines})" for _, first, name, lines in members]
    return "\n".join(out)


def read_allowlist(path: Path) -> dict:
    """``{section: [(pattern, reason)]}``; a line without a reason allows nothing."""
    sections: dict = {NOTHING: [], ONLY_TESTS: []}
    section = None
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line.strip("[]")
            if section not in sections:
                raise SystemExit(f"{path}:{number}: unknown section [{section}]")
            continue
        if section is None:
            raise SystemExit(f"{path}:{number}: entry before any section")
        pattern, _, reason = line.partition(" ")
        if reason.strip():
            sections[section].append((pattern, reason.strip()))
    return sections


def check(lists: dict, allowlist: dict) -> tuple:
    """``(missing, unused)``: the functions no allow-list line of their
    section covers, and the lines that cover no function."""
    missing, used = [], set()
    for title, functions in lists.items():
        for path, first, name, _ in functions:
            ident = f"{path}::{name}"
            matches = {
                (title, pattern) for pattern, _ in allowlist[title]
                if fnmatch.fnmatchcase(ident, pattern)
            }
            if not matches:
                missing.append(f"{title}: {ident} (line {first})")
            used |= matches
    unused = [
        f"[{title}] {pattern}"
        for title, entries in allowlist.items()
        for pattern, _ in entries
        if (title, pattern) not in used
    ]
    return missing, unused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="ALLOWLIST", type=Path, default=None,
                        help="exit 1 on a listed function the allow-list gives no reason "
                             "for, or on an allow-list line that covers nothing")
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--out", metavar="DIR", type=Path, default=None,
                      help="keep the per-process records here")
    runs.add_argument("--from", dest="source", metavar="DIR", type=Path, default=None,
                      help="analyse the records of an earlier --out run")
    args = parser.parse_args(argv)
    if args.source is not None:
        lists = classify(args.source)
    else:
        with tempfile.TemporaryDirectory() as scratch:
            out = args.out or Path(scratch)
            record(out)
            lists = classify(out)
    print(report(lists))
    if args.check is None:
        return 0
    missing, unused = check(lists, read_allowlist(args.check))
    for line in unused:
        print(f"allow-list line covers nothing (drop it): {line}")
    for line in missing:
        print(f"not allow-listed: {line}")
    print(
        f"--check: {len(missing)} functions without an allow-list reason, "
        f"{len(unused)} allow-list lines covering nothing"
    )
    return 1 if missing or unused else 0


if __name__ == "__main__":
    sys.exit(main())
