"""Trace-context propagation across failover and abort paths.

The gid doubles as the trace id on all protocol traffic, so the spans of
an in-doubt commit — the home replica's, the survivors' deliveries, and
the InquireReq/InquireResp resolution — share ONE trace without any
separate id plumbing.  These tests pin that, and that every abort path
closes its spans (a leaked open span would read as an in-flight
transaction in every flight-recorder snapshot forever after).
"""

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core import protocol
from repro.errors import CertificationAborted
from repro.storage.engine import CostModel
from repro.testing import query


def make_cluster(n=3, seed=1, **cfg):
    cluster = SIRepCluster(
        ClusterConfig(n_replicas=n, seed=seed, span_trace=True, **cfg)
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 5)])
    return cluster, Driver(cluster.network, cluster.discovery)


def settle(cluster, seconds=3.0):
    cluster.sim.run(until=cluster.sim.now + seconds)


class SlowApply(CostModel):
    """Stretch the commit window so the crash lands mid-commit."""

    def statement(self, kind, a, b, c):
        return (0.0, 0.0)

    def writeset_apply(self, n):
        return (0.2, 0.0)

    def commit(self, n):
        return (0.2, 0.0)


def test_one_trace_spans_crash_inquiry_and_survivors():
    """The case-3b-with-lost-response recipe: crash R0 after its writeset
    was sequenced but before the commit response reached the client.  The
    driver fails over and resolves the in-doubt gid via inquiry — and the
    whole story lands in a single trace."""
    cluster, driver = make_cluster(seed=2)
    sim = cluster.sim
    tracer = cluster.tracer
    log = {}
    for node in cluster.nodes:
        node.db.cost_model = SlowApply()
        node.db.cpu = node.cpu

    def client():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("UPDATE kv SET v = 5 WHERE k = 1")
        sim.call_at(sim.now + 0.1, lambda: cluster.crash(0))  # mid-commit
        yield from conn.commit()
        log["committed"] = True
        log["failovers"] = conn.failovers

    sim.spawn(client(), name="client")
    sim.run()
    settle(cluster, 5.0)
    assert log["committed"] and log["failovers"] == 1

    # exactly one transaction ran; its gid is the trace id everywhere
    roots = [s for s in tracer.spans() if s.name == "txn"]
    assert len(roots) == 1
    gid = roots[0].trace_id
    trace = tracer.trace(gid)
    replicas = {s.replica for s in trace}
    assert "R0" in replicas and len(replicas) >= 2  # home + survivors

    # the in-doubt inquiry joined the same trace on a survivor, carrying
    # the crashed replica's name and the resolved outcome
    inquiries = [s for s in trace if s.name == "inquiry"]
    assert inquiries, [s.name for s in trace]
    for span in inquiries:
        assert span.replica != "R0"
        assert span.attrs["crashed"] == "R0"
        assert not span.open
        assert span.attrs["outcome"] == protocol.COMMITTED

    # survivors committed the writeset: their deliver spans link (not
    # parent) back to the home replica's gcs span and closed ok
    delivers = [s for s in trace if s.name == "deliver"]
    assert {s.replica for s in delivers} == {"R1", "R2"}
    assert all(s.link is not None and s.status == "ok" for s in delivers)

    # R0's interrupted spans were force-closed at the crash, not leaked
    crashed = [s for s in trace if s.replica == "R0" and s.status == "crashed"]
    assert crashed, "crash(0) must close R0's open spans as crashed"
    assert tracer.open_spans() == []
    assert tracer.nesting_violations() == []

    # and the commit really happened everywhere that survived
    for replica in cluster.alive_replicas():
        assert query(sim, replica.node.db, "SELECT v FROM kv WHERE k = 1") == [
            {"v": 5}
        ]
    cluster.stop()


def test_abort_paths_close_their_spans():
    """A certification abort and an explicit rollback both finish the
    transaction's spans with the right status — nothing stays open."""
    cluster, driver = make_cluster(seed=5)
    sim = cluster.sim
    tracer = cluster.tracer
    log = {"aborted": 0, "committed": 0}

    def contender(address, value):
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = 1", (value,))
        try:
            yield from conn.commit()
            log["committed"] += 1
        except CertificationAborted:
            log["aborted"] += 1

    def quitter():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("UPDATE kv SET v = 9 WHERE k = 2", ())
        yield from conn.rollback()
        log["rolled_back"] = True

    # same row from two replicas at the same instant: certification
    # aborts exactly one of them
    sim.spawn(contender("R0", 1), name="c0")
    sim.spawn(contender("R1", 2), name="c1")
    sim.spawn(quitter(), name="q")
    sim.run()
    settle(cluster)
    assert log["committed"] == 1 and log["aborted"] == 1
    assert log["rolled_back"]

    statuses = {s.status for s in tracer.spans() if s.name == "txn"}
    assert "ok" in statuses
    assert "aborted" in statuses or "rolled-back" in statuses
    rolled = [s for s in tracer.spans() if s.status == "rolled-back"]
    assert rolled, "the explicit rollback must close its spans"
    # the losing writeset's certify spans carry the aborted outcome
    certifies = [s for s in tracer.spans() if s.name == "certify"]
    assert any(s.attrs.get("outcome") == "aborted" for s in certifies)
    # fully drained run: no span leaks anywhere
    assert tracer.open_spans() == []
    assert tracer.nesting_violations() == []
    cluster.stop()


def test_shutdown_closes_leftover_spans():
    cluster, driver = make_cluster(n=2, seed=3)
    sim = cluster.sim

    def client():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("UPDATE kv SET v = 1 WHERE k = 1")
        # never commits: the session span is still open at stop()
        yield sim.sleep(10.0)

    sim.spawn(client(), name="client")
    sim.run(until=0.5)
    assert cluster.tracer.open_spans()
    cluster.stop()
    assert cluster.tracer.open_spans() == []
    leftover = [s for s in cluster.tracer.spans() if s.status == "shutdown"]
    assert leftover


def test_a_traced_recovery_completes_and_closes_its_span():
    """The recovery span closes with the install's stats (mode, donor,
    sizes), and the replica comes back: finishing the span once raised
    inside the delivery loop, so a traced recovery never completed."""
    from repro.durable import DurabilityConfig

    for mode, durability in (("full", None), ("delta", DurabilityConfig())):
        cluster, driver = make_cluster(seed=4, durability=durability)
        cluster.sim.call_at(0.1, lambda: cluster.crash(0))
        cluster.sim.call_at(0.5, lambda: cluster.recover_replica(0))

        def writer():
            yield cluster.sim.sleep(1.0)
            conn = yield from driver.connect(cluster.new_client_host(), address="R1")
            yield from conn.execute("UPDATE kv SET v = 7 WHERE k = 2")
            yield from conn.commit()

        cluster.sim.spawn(writer(), name="writer")
        settle(cluster)
        recovered = cluster.replicas[0]
        assert recovered.recovery.installed and recovered.recovery.stats["mode"] == mode
        # it goes on applying what is delivered after its recovery
        assert recovered.db.csn == cluster.replicas[1].db.csn == 1
        (span,) = [s for s in cluster.tracer.spans() if s.name == "recovery"]
        assert not span.open and span.status == "ok"
        assert span.attrs == recovered.recovery.stats
