"""The cross-runtime oracle: one protocol, two schedulers, one answer.

A deterministic *outcome* workload — disjoint key ranges per client,
deterministic values, retry-until-commit — must leave the cluster in an
identical committed state no matter which scheduler ran it.  The oracle
drives the same workload through the discrete-event :class:`Simulator`
and the wall-clock :class:`WallRuntime` (real TCP sockets, real
timers, fsync-backed logs) and demands:

* identical committed-state fingerprints, across runtimes AND across
  every alive replica within a run;
* an identical Definition-3 (:func:`check_one_copy_si`) verdict;
* identical online-monitor verdicts (clean on both);
* equivalent failover behavior when a replica crashes mid-run.

Interleavings legitimately differ between the runtimes (wall time is
not virtual time); the protocol's *outcome* must not.
"""

import hashlib

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.gcs import GcsConfig
from repro.durable.store import DurabilityConfig
from repro.errors import DatabaseError, ReproError
from repro.net import ChannelClosed
from repro.testing import query

N_CLIENTS = 3
N_TXNS = 6

pytestmark = pytest.mark.slow


def keys_for(cid: int) -> list[int]:
    return [cid * 10 + j + 1 for j in range(5)]


def fingerprint(sim, db) -> str:
    rows = query(sim, db, "SELECT k, v FROM kv ORDER BY k")
    blob = repr([(row["k"], row["v"]) for row in rows]).encode()
    return hashlib.sha256(blob).hexdigest()


def run_workload(runtime: str, crash: bool = False, log_dir=None) -> dict:
    """Drive the canonical oracle workload on one runtime; return the
    observables the oracle compares."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=0,
            runtime=runtime,
            monitor=True,
            gcs=GcsConfig(crash_detection=0.05),
            durability=(
                DurabilityConfig(log_dir=log_dir) if log_dir is not None else None
            ),
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load(
        "kv",
        [{"k": k, "v": 0} for cid in range(N_CLIENTS) for k in keys_for(cid)],
    )
    driver = Driver(cluster.network, cluster.discovery)

    def client(cid):
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(N_TXNS):
            # disjoint key ranges and deterministic values: the final
            # state is timing-independent as long as every transaction
            # eventually commits
            key = cid * 10 + (i % 5) + 1
            value = cid * 100 + i
            while True:
                try:
                    yield from conn.execute(
                        "UPDATE kv SET v = ? WHERE k = ?", (value, key)
                    )
                    yield from conn.commit()
                    break
                except DatabaseError:
                    yield sim.sleep(0.005)
                except (ChannelClosed, ReproError):
                    # our replica crashed: fail over to a survivor
                    yield sim.sleep(0.05)
                    conn = yield from driver.connect(cluster.new_client_host())

    for cid in range(N_CLIENTS):
        sim.spawn(client(cid), name=f"client-{cid}")

    if crash:
        def controller():
            # crash R2 once real traffic has committed, whatever wall
            # or virtual instant that happens at
            while cluster.total_commits() < 4:
                yield sim.sleep(0.01)
            cluster.crash(2)

        sim.spawn(controller(), name="controller", daemon=True)

    sim.run()
    sim.run(until=sim.now + 1.0)  # drain remote applies

    alive = cluster.alive_replicas()
    prints = sorted(
        (replica.name, fingerprint(sim, replica.node.db)) for replica in alive
    )
    result = {
        "n_alive": len(alive),
        "fingerprints": {name: fp for name, fp in prints},
        "unique_fingerprints": sorted({fp for _, fp in prints}),
        "audit_ok": cluster.one_copy_report().ok,
        "monitor_tripped": cluster.monitor.summary()["tripped"],
        "monitor_violations": len(cluster.monitor.violations),
        "commits": cluster.total_commits(),
    }
    cluster.stop()
    return result


def expected_unique_fingerprint() -> str:
    """The timing-independent final state, computed without a cluster."""
    state = {k: 0 for cid in range(N_CLIENTS) for k in keys_for(cid)}
    for cid in range(N_CLIENTS):
        for i in range(N_TXNS):
            state[cid * 10 + (i % 5) + 1] = cid * 100 + i
    blob = repr(sorted(state.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def assert_verdicts_match(sim_result: dict, wall_result: dict) -> None:
    assert sim_result["unique_fingerprints"] == wall_result["unique_fingerprints"]
    assert len(sim_result["unique_fingerprints"]) == 1  # replicas converged
    assert sim_result["audit_ok"] is True
    assert wall_result["audit_ok"] is True
    assert sim_result["monitor_tripped"] == wall_result["monitor_tripped"] == False  # noqa: E712
    assert sim_result["monitor_violations"] == wall_result["monitor_violations"] == 0


def test_oracle_identical_outcome_across_runtimes():
    sim_result = run_workload("sim")
    wall_result = run_workload("wall")
    assert_verdicts_match(sim_result, wall_result)
    assert sim_result["unique_fingerprints"] == [expected_unique_fingerprint()]
    assert sim_result["n_alive"] == wall_result["n_alive"] == 3
    # every transaction committed exactly once on each path
    assert sim_result["commits"] >= N_CLIENTS * N_TXNS
    assert wall_result["commits"] >= N_CLIENTS * N_TXNS


def test_oracle_identical_outcome_across_runtimes_with_crash(tmp_path):
    sim_result = run_workload(
        "sim", crash=True, log_dir=tmp_path / "sim"
    )
    wall_result = run_workload(
        "wall", crash=True, log_dir=tmp_path / "wall"
    )
    assert_verdicts_match(sim_result, wall_result)
    assert sim_result["unique_fingerprints"] == [expected_unique_fingerprint()]
    # the crashed replica is gone on both paths, the survivors converge
    assert sim_result["n_alive"] == wall_result["n_alive"] == 2
    # commit *counters* homed at the crashed replica die with it, so the
    # counts may undershoot N_CLIENTS * N_TXNS; the fingerprint above is
    # the authoritative proof that every write eventually committed
    assert sim_result["commits"] > 0
    assert wall_result["commits"] > 0
