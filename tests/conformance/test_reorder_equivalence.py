"""Conformance for the contention engine: conflict-aware batch
reordering (+ salvage) stays equivalent to an admissible serial SI
execution and fully deterministic.

Component level: the sequencer's reorder pass is a pure function of
batch content (same batch -> same permutation), and certifying the
permuted batch as one unit equals certifying it one message at a time —
so reordering *before* sequencing composes with the PR-2 batching
equivalence and every replica reaches identical decisions.

Cluster level (hypothesis over random contended workloads): with
reordering, salvage, and adaptive windows all enabled,

* every replica ends in the identical committed state;
* replaying the certified writeset log serially into a fresh engine
  reproduces that state — the run IS an admissible serial SI execution
  over its commit set;
* the client-observed commit/abort set matches the certified log;
* the Def. 3 offline audit holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.protocol import WritesetMessage
from repro.core.validation import Certifier, WsRecord
from repro.durable import DurabilityConfig
from repro.gcs import GcsConfig
from repro.gcs.multicast import GroupBus
from repro.sim import Simulator
from repro.storage import Database
from repro.storage.writeset import UPDATE, WriteOp, WriteSet
from repro.testing import query

KEYS = list(range(1, 9))

batch_specs = st.lists(
    st.tuples(
        st.sets(st.sampled_from(KEYS), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=4),  # certificate lag
    ),
    min_size=1,
    max_size=12,
)


def make_records(specs):
    records = []
    for index, (keys, lag) in enumerate(specs):
        writeset = WriteSet(
            [WriteOp("t", k, UPDATE, {"k": k, "v": index}) for k in sorted(keys)]
        )
        records.append(
            WsRecord(
                f"g{index}",
                writeset,
                cert=max(0, index - lag),
                sender="X",
                blind=writeset.keys,
            )
        )
    return records


def reorder_payloads(specs):
    """Run one batch through the sequencer's reorder pass; returns the
    permuted gid order (senders/timestamps play no role in the pass)."""
    sim = Simulator(seed=0)
    bus = GroupBus(
        sim, config=GcsConfig(batch_max_messages=16, reorder=True)
    )
    live = [
        (None, WritesetMessage(
            gid=record.gid, writeset=record.writeset, cert=record.cert, sender="X"
        ), 0.0)
        for record in make_records(specs)
    ]
    return [payload.gid for _sender, payload, _at in bus._reorder(live)]


@settings(max_examples=60, deadline=None)
@given(specs=batch_specs)
def test_reorder_is_deterministic_and_a_permutation(specs):
    first = reorder_payloads(specs)
    second = reorder_payloads(specs)
    assert first == second
    assert sorted(first) == sorted(f"g{i}" for i in range(len(specs)))


@settings(max_examples=60, deadline=None)
@given(specs=batch_specs, salvage=st.booleans())
def test_permuted_batch_equals_serial_delivery(specs, salvage):
    """The permutation the sequencer picks is certified identically
    whether delivered as one batch or one message at a time — the
    reordered order simply IS the total order."""
    order = {gid: i for i, gid in enumerate(reorder_payloads(specs))}
    as_batch = sorted(make_records(specs), key=lambda r: order[r.gid])
    serial = sorted(make_records(specs), key=lambda r: order[r.gid])
    cert_a, cert_b = Certifier(salvage=salvage), Certifier(salvage=salvage)
    decisions_batch = [cert_a.validate(record) for record in as_batch]
    decisions_serial = [cert_b.validate(record) for record in serial]
    assert decisions_batch == decisions_serial
    assert [r.tid for r in as_batch] == [r.tid for r in serial]
    assert (cert_a.salvaged, cert_a.rejected) == (cert_b.salvaged, cert_b.rejected)


# -- cluster level -----------------------------------------------------------

# per client: the replica it connects to and the keys of its sequential
# single-update transactions (small key pool -> real contention)
workloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),
    ),
    min_size=2,
    max_size=4,
)


def run_cluster(workload, seed):
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=seed,
            salvage=True,
            durability=DurabilityConfig(),
            gcs=GcsConfig(
                batch_max_messages=4,
                batch_window=0.004,
                reorder=True,
                adaptive_window=True,
                batch_window_min=0.001,
                batch_window_max=0.01,
            ),
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in KEYS])
    driver = Driver(cluster.network, cluster.discovery)
    outcomes: dict[int, bool] = {}

    def client(cid, replica, keys):
        conn = yield from driver.connect(
            cluster.new_client_host(), address=f"R{replica}"
        )
        for i, key in enumerate(keys):
            value = cid * 100 + i + 1  # unique per transaction
            try:
                yield from conn.execute(
                    "UPDATE kv SET v = ? WHERE k = ?", (value, key)
                )
                yield from conn.commit()
                outcomes[value] = True
            except Exception:
                outcomes[value] = False
                try:
                    yield from conn.rollback()
                except Exception:
                    pass

    for cid, (replica, keys) in enumerate(workload):
        sim.spawn(client(cid, replica, keys), name=f"c{cid}")
    sim.run(until=30.0)
    states = {
        tuple(
            (r["k"], r["v"])
            for r in query(sim, rep.node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for rep in cluster.replicas
    }
    decisions = {
        (
            rep.validation.certifier.validated,
            rep.validation.certifier.rejected,
            rep.validation.certifier.salvaged,
            rep.validation.certifier.last_validated_tid,
        )
        for rep in cluster.replicas
    }
    log_records = list(cluster.replicas[0].wslog.records_after(0))
    report = cluster.one_copy_report()
    return cluster, outcomes, states, decisions, log_records, report


@settings(max_examples=10, deadline=None)
@given(workload=workloads)
def test_contended_cluster_matches_serial_si_execution(workload):
    cluster, outcomes, states, decisions, log_records, report = run_cluster(
        workload, seed=5
    )
    assert len(states) == 1, "replicas diverged"
    assert len(decisions) == 1, "certification decisions diverged"
    assert report.ok, [str(v) for v in report.violations]
    # the committed set the clients observed is exactly the certified log
    committed_values = {
        op.values["v"]
        for record in log_records
        if record.kind == "ws"
        for op in record.ops
    }
    assert committed_values == {v for v, ok in outcomes.items() if ok}
    # replaying the log serially into a fresh engine reproduces the
    # replicated state: the run is an admissible serial SI execution
    sim = Simulator(seed=0)
    serial_db = Database(sim, name="serial")
    serial_db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    serial_db.bulk_load("kv", [{"k": k, "v": 0} for k in KEYS])
    for record in log_records:
        if record.kind == "ws":
            serial_db.install_writeset(record.gid, record.ops)
    serial_state = tuple(
        (r["k"], r["v"])
        for r in query(sim, serial_db, "SELECT k, v FROM kv ORDER BY k")
    )
    assert serial_state == states.pop()


@settings(max_examples=5, deadline=None)
@given(workload=workloads)
def test_contended_cluster_is_deterministic(workload):
    """Same workload, same seed -> identical outcomes, state, and
    salvage/reorder decisions (run-to-run determinism under all knobs)."""
    first = run_cluster(workload, seed=9)
    second = run_cluster(workload, seed=9)
    assert first[1] == second[1]  # client outcomes
    assert first[2] == second[2]  # final states
    assert first[3] == second[3]  # certifier decision tuples
    assert first[0].bus.reordered_entries == second[0].bus.reordered_entries
