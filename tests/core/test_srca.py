"""Centralized SRCA tests: Fig. 1 behaviour, Fig. 2 scenario, Theorem 1,
and the §4.3.2 anomaly (OPT violates 1-copy-SI, FULL and BASIC do not)."""

import pytest

from repro.core.replica import ReplicaNode
from repro.core.srca import ABORTED, BASIC, COMMITTED, FULL, OPT, SRCA
from repro.si import KeyedAudit
from repro.sim import Resource, Simulator
from repro.storage import Database
from repro.storage.engine import CostModel, DEFERRED, LOCKING
from repro.testing import run_txn


class ApplyDelayCost(CostModel):
    """Zero-cost model except remote writeset application."""

    def __init__(self, apply_cost: float):
        self.apply_cost = apply_cost

    def statement(self, kind, rows_examined, rows_returned, rows_written):
        return (0.0, 0.0)

    def writeset_apply(self, n_ops):
        return (self.apply_cost, 0.0)

    def commit(self, n_writes):
        return (0.0, 0.0)


def build(sim, n, mode, apply_cost=0.0):
    detection = DEFERRED if mode == BASIC else LOCKING
    nodes = []
    for i in range(n):
        cpu = Resource(sim, f"cpu{i}") if apply_cost else None
        db = Database(
            sim,
            name=f"R{i}",
            conflict_detection=detection,
            cost_model=ApplyDelayCost(apply_cost) if apply_cost else None,
            cpu=cpu,
        )
        db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        run_txn(
            sim, db,
            [("INSERT INTO kv (k, v) VALUES (1,0),(2,0),(3,0),(4,0)",)],
            gid=f"setup-R{i}",
        )
        nodes.append(ReplicaNode(name=f"R{i}", db=db, cpu=cpu))
    return SRCA(sim, nodes, mode=mode)


def one_copy_report(srca):
    for node in srca.nodes:
        node.db.history = [
            e for e in node.db.history if not str(e[1]).startswith("setup-")
        ]
    audit = KeyedAudit()
    for node in srca.nodes:
        audit.feed_history(node.name, node.db.history)
    return audit.report()


def txn_once(sim, srca, statements, replica=None):
    """Run one client transaction to completion; returns the outcome."""

    def body():
        stxn = yield from srca.begin(replica=replica)
        for sql, params in statements:
            yield from srca.execute(stxn, sql, params)
        outcome = yield from srca.commit(stxn)
        return outcome

    return sim.run_process(body())


@pytest.mark.parametrize("mode", [BASIC, OPT, FULL])
def test_update_propagates_to_all_replicas(mode):
    sim = Simulator(seed=1)
    srca = build(sim, 3, mode)
    outcome = txn_once(
        sim, srca, [("UPDATE kv SET v = 7 WHERE k = 1", ())], replica=0
    )
    assert outcome == COMMITTED
    sim.run_process(srca.drain())
    from repro.testing import query

    for node in srca.nodes:
        assert query(sim, node.db, "SELECT v FROM kv WHERE k = 1") == [{"v": 7}]


@pytest.mark.parametrize("mode", [BASIC, OPT, FULL])
def test_readonly_commits_locally_only(mode):
    sim = Simulator(seed=1)
    srca = build(sim, 2, mode)
    outcome = txn_once(sim, srca, [("SELECT * FROM kv", ())], replica=0)
    assert outcome == COMMITTED
    # no writeset was certified
    assert srca.certifier.decisions == 0


def test_mode_requires_matching_conflict_detection():
    sim = Simulator()
    db = Database(sim, conflict_detection=LOCKING)
    with pytest.raises(ValueError):
        SRCA(sim, [ReplicaNode("R0", db)], mode=BASIC)


def test_fig2_scenario_t3_aborts_on_stale_replica():
    """Fig. 2: T1 commits at R0 while its writeset is still queued at R1;
    T3, local at R1 and writing the same row, fails validation."""
    sim = Simulator(seed=2)
    srca = build(sim, 2, BASIC, apply_cost=5.0)
    log = {}

    def t1():
        stxn = yield from srca.begin(replica=0)
        yield from srca.execute(stxn, "UPDATE kv SET v = v + 1 WHERE k = 1")
        log["t1"] = yield from srca.commit(stxn)

    def t3():
        yield sim.sleep(1.0)  # T1 committed at R0 but still applying at R1
        stxn = yield from srca.begin(replica=1)
        yield from srca.execute(stxn, "UPDATE kv SET v = v + 10 WHERE k = 1")
        log["t3"] = yield from srca.commit(stxn)

    sim.spawn(t1(), name="t1")
    sim.spawn(t3(), name="t3")
    sim.run()
    assert log == {"t1": COMMITTED, "t3": ABORTED}
    assert one_copy_report(srca).ok


def test_fig2_scenario_t2_nonconflicting_survives():
    """T2 (writes y) runs concurrently with T1 (writes x) and commits."""
    sim = Simulator(seed=2)
    srca = build(sim, 2, BASIC, apply_cost=5.0)
    log = {}

    def t1():
        stxn = yield from srca.begin(replica=0)
        yield from srca.execute(stxn, "UPDATE kv SET v = 1 WHERE k = 1")
        log["t1"] = yield from srca.commit(stxn)

    def t2():
        stxn = yield from srca.begin(replica=1)
        yield from srca.execute(stxn, "SELECT v FROM kv WHERE k = 1")
        yield sim.sleep(2.0)
        yield from srca.execute(stxn, "UPDATE kv SET v = 2 WHERE k = 2")
        log["t2"] = yield from srca.commit(stxn)

    sim.spawn(t1(), name="t1")
    sim.spawn(t2(), name="t2")
    sim.run()
    assert log == {"t1": COMMITTED, "t2": COMMITTED}
    assert one_copy_report(srca).ok


def _run_432_scenario(mode):
    """§4.3.2: Ti writes x at R0, Tj writes y at R1, slow remote applies;
    readers Ta (R0) and Tb (R1) start in the windows between commits."""
    sim = Simulator(seed=3)
    srca = build(sim, 2, mode, apply_cost=3.0)
    reads = {}

    def writer(replica, key, value, delay):
        yield sim.sleep(delay)
        stxn = yield from srca.begin(replica=replica)
        yield from srca.execute(stxn, "UPDATE kv SET v = ? WHERE k = ?", (value, key))
        yield from srca.commit(stxn)

    def reader(name, replica, delay):
        yield sim.sleep(delay)
        stxn = yield from srca.begin(replica=replica)
        result = yield from srca.execute(
            stxn, "SELECT k, v FROM kv WHERE k IN (1, 2) ORDER BY k"
        )
        reads[name] = {r["k"]: r["v"] for r in result.rows}
        yield from srca.commit(stxn)

    sim.spawn(writer(0, 1, 11, 0.0), name="Ti")   # writes x=kv[1]
    sim.spawn(writer(1, 2, 22, 0.2), name="Tj")   # writes y=kv[2]
    sim.spawn(reader("Ta", 0, 1.0), name="Ta")
    sim.spawn(reader("Tb", 1, 1.0), name="Tb")
    sim.run()
    return srca, reads


def test_432_opt_mode_violates_one_copy_si():
    srca, reads = _run_432_scenario(OPT)
    # Each reader saw only its local commit: the two observations are
    # mutually inconsistent with any single SI order.
    assert reads["Ta"] == {1: 11, 2: 0}
    assert reads["Tb"] == {1: 0, 2: 22}
    report = one_copy_report(srca)
    assert not report.ok
    assert report.cycle is not None


def test_432_full_mode_preserves_one_copy_si():
    srca, reads = _run_432_scenario(FULL)
    report = one_copy_report(srca)
    assert report.ok
    # The delayed reader saw both writes once the hole closed.
    assert reads["Ta"] == {1: 11, 2: 0}   # R0 order was hole-free
    assert reads["Tb"] == {1: 11, 2: 22}  # Tb waited for Ti's apply


def test_432_basic_mode_preserves_one_copy_si():
    srca, reads = _run_432_scenario(BASIC)
    assert one_copy_report(srca).ok


@pytest.mark.parametrize("mode", [BASIC, FULL])
def test_random_workload_maintains_one_copy_si(mode):
    """Randomized concurrent clients; the recorded histories must always
    pass the 1-copy-SI checker in BASIC and FULL modes."""
    sim = Simulator(seed=42)
    srca = build(sim, 3, mode, apply_cost=0.5)
    rng = sim.rng("workload")

    def client(cid):
        for i in range(8):
            yield sim.sleep(rng.random() * 2.0)
            stxn = yield from srca.begin()
            try:
                if rng.random() < 0.4:
                    result = yield from srca.execute(
                        stxn, "SELECT k, v FROM kv ORDER BY k"
                    )
                    yield from srca.commit(stxn)
                else:
                    key = rng.randint(1, 4)
                    yield from srca.execute(
                        stxn,
                        "UPDATE kv SET v = ? WHERE k = ?",
                        (cid * 100 + i, key),
                    )
                    yield from srca.commit(stxn)
            except Exception:
                # a rejected statement or commit has already aborted
                assert not stxn.active

    for cid in range(4):
        sim.spawn(client(cid), name=f"client{cid}")
    sim.run()
    report = one_copy_report(srca)
    assert report.ok, [str(v) for v in report.violations]
    assert srca.commits > 0
