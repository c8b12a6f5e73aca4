"""The repo benchmark's monkey-patch targets still exist.

``benchmarks/e2e/trace.py`` replaces every ``SHIMS`` entry point on its
owner by name, reading the original through ``vars(owner)[attr]`` — so
an entry point that a refactor moves to a base class or renames only
fails inside a benchmark run.  This puts that lookup in tier-1.
"""

import importlib.util
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def load_trace(monkeypatch):
    # trace.py imports its sibling ``workloads`` as a top-level module
    monkeypatch.syspath_prepend(str(E2E))
    spec = importlib.util.spec_from_file_location("e2e_trace", E2E / "trace.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("workloads", None)
    return module


def test_every_shim_resolves_on_its_owner(monkeypatch):
    trace = load_trace(monkeypatch)
    assert trace.SHIMS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _kind, _after in trace.SHIMS
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []
