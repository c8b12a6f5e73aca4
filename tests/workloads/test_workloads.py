"""Workload definitions: shapes, mixes, determinism, end-to-end sanity."""

import random

import pytest

from repro.core import ClusterConfig, SIRepCluster
from repro.workloads import ClientPool, ProcClientPool
from repro.workloads import largedb, micro, tpcw


@pytest.mark.parametrize("module", [tpcw, largedb, micro])
def test_workload_data_is_deterministic(module):
    a = module.make_workload()
    b = module.make_workload()
    assert a.tables == b.tables


def test_tpcw_has_eight_tables_and_1000_items():
    wl = tpcw.make_workload()
    assert len(wl.tables) == 8
    assert len(wl.tables["item"]) == 1000


def test_tpcw_mix_is_half_updates():
    wl = tpcw.make_workload()
    assert wl.update_fraction() == pytest.approx(0.5, abs=0.01)


def test_tpcw_alternate_mixes():
    assert tpcw.make_workload(mix="shopping").update_fraction() == pytest.approx(
        0.20, abs=0.02
    )
    assert tpcw.make_workload(mix="browsing").update_fraction() == pytest.approx(
        0.05, abs=0.02
    )
    with pytest.raises(ValueError, match="unknown TPC-W mix"):
        tpcw.make_workload(mix="nope")


def test_largedb_shape():
    wl = largedb.make_workload()
    assert len(wl.tables) == 10
    assert wl.update_fraction() == pytest.approx(0.2)


def test_micro_shape_and_locks():
    wl = micro.make_workload()
    assert len(wl.tables) == 10
    assert wl.update_fraction() == 1.0
    rng = random.Random(5)
    template = wl.mix[0][0]
    params = template.make_params(rng)
    statements = template.statements(params)
    assert len(statements) == 10
    # the instance's statements stay within the 3 declared tables
    locked = set(template.lock_tables(params))
    assert len(locked) == 3
    for sql, _params in statements:
        table = sql.split()[1]
        assert table in locked


def test_choose_respects_weights():
    wl = tpcw.make_workload()
    rng = random.Random(1)
    counts = {}
    for _ in range(4000):
        template = wl.choose(rng)
        counts[template.name] = counts.get(template.name, 0) + 1
    assert counts["buy_confirm"] > counts["customer_registration"]
    assert abs(counts["home"] / 4000 - 0.20) < 0.03


def test_procedures_roundtrip():
    wl = micro.make_workload()
    procs = wl.procedures()
    assert "micro_update" in procs
    proc = procs["micro_update"]
    rng = random.Random(2)
    params = wl.mix[0][0].make_params(rng)
    assert len(proc.locks_for(params)) == 3
    assert len(proc.statements(params)) == 10


def test_tpcw_statements_execute_against_cluster():
    """Every template's statements parse and run on a live cluster."""
    cluster = SIRepCluster(ClusterConfig(n_replicas=2, seed=1))
    wl = tpcw.make_workload()
    wl.install(cluster)
    from repro.client import Driver

    driver = Driver(cluster.network, cluster.discovery)
    sim = cluster.sim
    rng = random.Random(3)

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        for template, _w in wl.mix:
            params = template.make_params(rng)
            for sql, sql_params in template.statements(params):
                yield from conn.execute(sql, sql_params)
            yield from conn.commit()
        return True

    assert sim.run_process(client()) is True
    sim.run(until=sim.now + 2.0)
    assert cluster.one_copy_report().ok


def test_client_pool_offered_load_matches_target_below_saturation():
    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=2))
    wl = micro.make_workload()
    wl.install(cluster)
    pool = ClientPool(cluster, wl, n_clients=20, target_tps=50, duration=20.0, warmup=2.0)
    stats = pool.run()
    # zero-cost DBs: far below saturation, throughput ~= target
    assert stats.throughput() == pytest.approx(50, rel=0.2)


def test_proc_client_pool_runs_tablelock_baseline():
    from repro.core.baselines import TableLockSystem

    wl = micro.make_workload()
    system = TableLockSystem(wl.procedures(), ClusterConfig(n_replicas=3, seed=3))
    wl.install(system)
    pool = ProcClientPool(system, wl, n_clients=10, target_tps=30, duration=10.0, warmup=1.0)
    stats = pool.run()
    assert stats.total_commits > 100
    assert stats.throughput() == pytest.approx(30, rel=0.3)
    # replicas converged
    from repro.testing import query

    states = set()
    for replica in system.replicas:
        rows = query(system.sim, replica.db, f"SELECT SUM(v) AS s FROM small0")
        states.add(rows[0]["s"])
    assert len(states) == 1
