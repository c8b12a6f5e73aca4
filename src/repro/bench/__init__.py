"""Benchmark harness reproducing the paper's §6 evaluation.

Every calibration constant lives in :mod:`repro.bench.costs`; the sweep
definitions for Figures 5-7 and the §6 claims live in
:mod:`repro.bench.figures`.  ``python -m repro.bench <fig5|fig6|fig7|claims|all>``
regenerates the series.
"""

from repro.bench.harness import (
    LoadPoint,
    per_replica_cost,
    run_centralized,
    run_sirep,
    run_tablelock,
    run_until_confident,
)

__all__ = [
    "LoadPoint",
    "per_replica_cost",
    "run_sirep",
    "run_centralized",
    "run_tablelock",
    "run_until_confident",
]
