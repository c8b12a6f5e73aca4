"""Benchmark harness reproducing the paper's §6 evaluation.

Every calibration constant lives in :mod:`repro.bench.costs`; the sweep
definitions for Figures 5-7 and the §6 claims live in
:mod:`repro.bench.figures`.  ``python -m repro.bench <fig5|fig6|fig7|claims|all>``
regenerates the series.
"""

from repro.bench.harness import (
    LoadPoint,
    run_comparator,
    run_sirep,
    run_until_confident,
)

__all__ = [
    "LoadPoint",
    "run_sirep",
    "run_comparator",
    "run_until_confident",
]
