"""``python -m repro.obs.profile`` on a real traced run, the three ways
the README shows: render, ``--json PATH`` and ``--compare``."""

import json

import pytest

from repro.bench.costs import MicroCost
from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.obs import profile

CLIENTS = 2
UPDATES_PER_CLIENT = 3


@pytest.fixture(scope="module")
def spans_path(tmp_path_factory):
    """The span JSONL of a small traced run on two replicas."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=2, seed=3, span_trace=True, cost_model=lambda _i: MicroCost()
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(CLIENTS)])
    driver = Driver(cluster.network, cluster.discovery)

    def client(cid):
        conn = yield from driver.connect(cluster.new_client_host())
        for _ in range(UPDATES_PER_CLIENT):
            yield from conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (cid,))
            yield from conn.commit()
        conn.close()

    for cid in range(CLIENTS):
        sim.spawn(client(cid), name=f"client{cid}")
    sim.run()
    path = tmp_path_factory.mktemp("profile") / "spans.jsonl"
    path.write_text(cluster.tracer.to_jsonl())
    return path


def test_cli_renders_dumps_and_compares_a_traced_run(spans_path, tmp_path, capsys):
    updates = CLIENTS * UPDATES_PER_CLIENT

    assert profile.main([str(spans_path), "--top", "1"]) == 0
    rendered = capsys.readouterr().out
    assert rendered.startswith(f"updates: n={updates} ")
    assert "phase              mean ms" in rendered
    assert rendered.count("[txn@") == 1  # one critical path

    report_path = tmp_path / "profile.json"
    assert profile.main([str(spans_path), "--json", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    # every update has a home txn root and one remote delivery root
    assert report["statuses"] == {"txn:ok": updates, "deliver:ok": updates}
    assert report["updates"]["n"] == updates
    phases = report["updates"]["phases"]
    assert sum(row["fraction"] for row in phases.values()) == pytest.approx(1.0)

    assert profile.main(["--compare", str(report_path), str(report_path)]) == 0
    header, _columns, *rows = capsys.readouterr().out.splitlines()
    p95 = f"{report['updates']['total_ms']['p95']:.2f}"
    assert header == f"updates: total p95 {p95} -> {p95} ms"
    assert [row.split()[0] for row in rows] == list(phases)
    assert all(row.split()[-2:] == ["+0.000", "1.00x"] for row in rows)
