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


def test_the_benchmark_reads_the_gid_of_a_real_writeset_multicast(monkeypatch):
    """The benchmark times ``gcs.order_ms`` by the gid it reads out of a
    multicast payload (``trace._writeset_gid``); a payload shape it
    cannot read would report 0.0 and fail nothing.  So read the payload
    a one-transaction cluster really multicasts."""
    from repro.client import Driver
    from repro.core import ClusterConfig, SIRepCluster, protocol
    from repro.gcs.multicast import GroupMember

    trace = load_trace(monkeypatch)
    sent = []
    multicast = GroupMember.multicast

    def spy(self, payload, batchable=False):
        sent.append(payload)
        return multicast(self, payload, batchable)

    monkeypatch.setattr(GroupMember, "multicast", spy)
    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=1))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)

    def transaction():
        conn = yield from driver.connect(cluster.new_client_host())
        yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
        yield from conn.commit()

    cluster.sim.run_process(transaction())
    (payload,) = sent
    assert payload.kind == protocol.WS
    (gid,) = cluster.replicas[0].committed_gids
    assert trace._writeset_gid(payload) == gid


def test_every_shim_resolves_on_its_owner(monkeypatch):
    trace = load_trace(monkeypatch)
    assert trace.SHIMS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _kind, _after in trace.SHIMS
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []
