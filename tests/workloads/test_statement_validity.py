"""Every workload template must execute cleanly against a live cluster,
under both the driver path and the [20] procedure path."""

import random

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.baselines import ProcClient, TableLockSystem
from repro.workloads import largedb, micro, tpcw


@pytest.mark.parametrize("module", [tpcw, largedb, micro])
def test_all_templates_run_via_driver(module):
    workload = module.make_workload()
    cluster = SIRepCluster(ClusterConfig(n_replicas=2, seed=1))
    workload.install(cluster)
    driver = Driver(cluster.network, cluster.discovery)
    sim = cluster.sim
    rng = random.Random(7)

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        for template, _weight in workload.mix:
            for _repeat in range(3):
                params = template.make_params(rng)
                for sql, sql_params in template.statements(params):
                    yield from conn.execute(sql, sql_params)
                yield from conn.commit()
        return True

    assert sim.run_process(client()) is True
    sim.run(until=sim.now + 2.0)
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]


@pytest.mark.parametrize("module", [tpcw, largedb, micro])
def test_all_templates_run_via_tablelock_procedures(module):
    workload = module.make_workload()
    system = TableLockSystem(workload.procedures(), ClusterConfig(n_replicas=2, seed=2))
    workload.install(system)
    sim = system.sim
    rng = random.Random(8)

    def client():
        proc_client = ProcClient(system, system.new_client_host())
        yield from proc_client.connect()
        for template, _weight in workload.mix:
            params = template.make_params(rng)
            yield from proc_client.call(
                template.name, params, readonly=template.readonly
            )
        return True

    assert sim.run_process(client()) is True
    sim.run(until=sim.now + 2.0)
    # replicas converged on every table
    for table in workload.tables:
        counts = {
            replica.db.table_row_count(table) for replica in system.replicas
        }
        assert len(counts) == 1


def test_template_statements_are_pure_functions_of_params():
    """The same params must expand to identical statements (needed for
    the [20] baseline, which re-expands at the executing replica)."""
    rng = random.Random(9)
    for module in (tpcw, largedb, micro):
        workload = module.make_workload()
        for template, _weight in workload.mix:
            params = template.make_params(rng)
            assert template.statements(params) == template.statements(params)
