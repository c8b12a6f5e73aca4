"""``benchmarks/pair.py``'s command line, parsed without running a pair."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "benchmarks" / "pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_flag_takes_several_workloads(pair):
    args = pair.parse_args(["--workload", "sim-update", "wall-update", "--pairs", "3"], NAMES)
    assert args.workload == ["sim-update", "wall-update"]
    assert args.pairs == 3


def test_a_repeated_flag_still_adds_up(pair):
    args = pair.parse_args(
        ["--workload", "sim-update", "--workload", "wall-tpcw", "sim-contention"], NAMES
    )
    assert args.workload == ["sim-update", "wall-tpcw", "sim-contention"]


def test_no_flag_means_every_workload_and_an_unknown_one_fails(pair):
    args = pair.parse_args([], NAMES)
    assert args.workload is None  # main() runs every workload then
    assert (args.base, args.pairs, args.seed, args.smoke) == ("HEAD", 5, 0, False)
    with pytest.raises(SystemExit):
        pair.parse_args(["--workload", "sim-update", "no-such-workload"], NAMES)
