"""Regressions for the failure-path protocol fixes.

Covers: a failed InquireReq must be answered with an InquireResp (not a
RollbackResp, which derails the driver's §5.4 in-doubt resolution);
finished session processes must be reaped; and bench-harness output must
be strict JSON end to end.
"""

import json

import pytest

from repro.bench.harness import run_sirep
from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core import protocol, session
from repro.errors import DatabaseError
from repro.workloads.micro import make_mixed_workload


def make_cluster(n=3, seed=1, **kwargs):
    cluster = SIRepCluster(ClusterConfig(n_replicas=n, seed=seed, **kwargs))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    return cluster, Driver(cluster.network, cluster.discovery)


# -- a failed inquiry answers with an InquireResp carrying the error -----------


def test_error_response_answers_inquire_with_inquire_resp():
    request = protocol.InquireReq(9, "gid-1", "R0")
    response = session._error_response(request, RuntimeError("boom"))
    assert isinstance(response, protocol.InquireResp)
    assert response.seq == 9
    assert response.error == ("RuntimeError", "boom")


def test_failed_inquiry_surfaces_the_error_to_the_driver():
    """Crash during commit, then fault the survivors' inquiry handler:
    the driver must receive the marshalled error through a well-formed
    InquireResp — before the fix it got a RollbackResp and broke on a
    response without ``outcome``/``error`` fields."""
    cluster, driver = make_cluster()
    sim = cluster.sim
    log = {}

    def failing_inquire(gid, crashed):
        raise RuntimeError("inquiry fault")
        yield  # pragma: no cover - generator marker

    for replica in cluster.replicas[1:]:
        replica._inquire = failing_inquire

    def client():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("UPDATE kv SET v = 5 WHERE k = 1")
        # crash the serving replica the instant the commit is sent: the
        # driver fails over and inquires on a (faulted) survivor
        sim.call_at(sim.now, lambda: cluster.crash(0))
        with pytest.raises(DatabaseError, match="inquiry fault"):
            yield from conn.commit()
        log["done"] = True

    sim.spawn(client(), name="client")
    sim.run()
    assert log.get("done")


# -- finished session processes are reaped -------------------------------------


def test_session_processes_are_reaped_under_churn():
    cluster, driver = make_cluster(n=2, seed=5)
    sim = cluster.sim
    replica = cluster.replicas[0]
    baseline = len(replica._processes)  # the deliver + accept daemons
    rounds = 40
    log = {}

    def churn():
        for _ in range(rounds):
            conn = yield from driver.connect(
                cluster.new_client_host(), address="R0"
            )
            yield from conn.execute("SELECT v FROM kv WHERE k = 1")
            yield from conn.commit()
            conn.close()
            yield sim.sleep(0.05)
        log["done"] = True

    sim.spawn(churn(), name="churn")
    sim.run()
    assert log["done"]
    assert replica.local.readonly_commits == rounds
    # every session was tracked, but the handles of finished ones were
    # reaped along the way instead of accumulating one per connection
    assert len(replica._processes) <= baseline + 2
    assert replica.active_sessions == 0


# -- bench-harness output is strict JSON end to end ----------------------------


def test_harness_output_round_trips_as_strict_json(tmp_path):
    point = run_sirep(
        make_mixed_workload(read_weight=0.3),
        40.0,
        ClusterConfig(n_replicas=3, seed=2, obs=True, sampler_interval=0.1),
        duration=1.5,
        warmup=0.3,
        profile=True,
    )
    path = tmp_path / "point.json"
    blob = {
        "throughput": point.throughput,
        "mean_rt_ms": point.mean_rt_ms,
        "extras": point.extras,
    }
    path.write_text(json.dumps(blob, allow_nan=False))  # NaN would raise here
    loaded = json.loads(path.read_text())
    updates = loaded["extras"]["profile"]["updates"]
    assert updates["n"] > 0
    assert "p95_ms" in updates["phases"]["sequencing"]
    metrics = loaded["extras"]["metrics"]
    assert len(metrics["obs"]["series"]) >= 5
    assert "R0.tocommit_depth" in metrics["obs"]["series"][0]
