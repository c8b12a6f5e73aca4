"""Batching conformance: batched delivery is observationally identical
to per-message delivery.

The strong property is checked at component level: the same stream of
writeset records is pushed through a Certifier + ReplicaManager +
Database once message-at-a-time and once packed into batches.  Both
runs must produce identical validation decisions, identical tid
assignments, identical commit order (hence identical CSNs), and
identical final database state — across full runs and crash-truncated
prefixes (a batch is all-or-nothing, so a prefix of batches is a prefix
of messages at a batch boundary).

A weaker cluster-level check (same workload, jitter 0, disjoint keys)
asserts outcome/state/audit equivalence through the full stack.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.replica import ReplicaManager, ReplicaNode
from repro.core.tocommit import Entry
from repro.core.validation import Certifier, WsRecord
from repro.gcs import GcsConfig
from repro.sim import Simulator
from repro.storage import Database
from repro.storage.writeset import UPDATE, WriteOp, WriteSet
from repro.testing import query

KEYS = list(range(1, 13))

# one writeset: a non-empty set of keys plus a certificate lag — how far
# behind the certification frontier the sender's snapshot was (0 = saw
# everything validated so far, bigger = staler, more likely to abort)
writeset_specs = st.lists(
    st.tuples(
        st.sets(st.sampled_from(KEYS), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=24,
)


def make_records(specs):
    """Fresh WsRecord instances (validate mutates ``tid``) with
    deterministic certificates derived from the drawn lags."""
    records = []
    for index, (keys, lag) in enumerate(specs):
        writeset = WriteSet(
            [WriteOp("t", k, UPDATE, {"k": k, "v": index}) for k in sorted(keys)]
        )
        cert = max(0, index - lag)
        records.append(WsRecord(f"g{index}", writeset, cert=cert, sender="X"))
    return records


def chunk(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_component(specs, batch_size, batched, group_commit=False, n_batches=None):
    """Feed the record stream through certification + queue + database.

    The stream is chunked into groups of ``batch_size``; each group is
    delivered at its own instant.  ``batched=True`` delivers a group as
    one unit (certified in order, then enqueue_batch); ``batched=False``
    delivers its messages one at a time, back to back, at the same
    instant — the per-message protocol under identical delivery timing.
    ``n_batches`` truncates delivery after that many groups (the crash
    case: uniformity cuts the stream at a batch boundary).
    Returns (decisions, tids, commit order, final csn, committed rows).
    """
    sim = Simulator(seed=0)
    db = Database(sim, name="X", conflict_detection="locking")
    db.run_ddl("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    db.bulk_load("t", [{"k": k, "v": -1} for k in KEYS])
    manager = ReplicaManager(
        sim,
        ReplicaNode(name="X", db=db),
        strict_serial=False,
        hole_sync=True,
        group_commit=group_commit,
    )
    certifier = Certifier()
    records = make_records(specs)
    batches = chunk(records, batch_size)
    if n_batches is not None:
        batches = batches[:n_batches]
    decisions: list[bool] = []
    commit_order: list[str] = []
    manager.on_commit = lambda entry: commit_order.append(entry.gid)

    def feeder():
        for batch in batches:
            if batched:
                oks = [certifier.validate(record) for record in batch]
                decisions.extend(oks)
                manager.enqueue_batch(
                    [Entry(r) for r, ok in zip(batch, oks) if ok]
                )
            else:
                for record in batch:
                    ok = certifier.validate(record)
                    decisions.append(ok)
                    if ok:
                        manager.enqueue(Entry(record))
            yield sim.sleep(0.001)

    sim.run_process(feeder())
    sim.run(until=sim.now + 5.0)
    tids = {r.gid: r.tid for batch in batches for r in batch}
    rows = tuple(
        (r["k"], r["v"])
        for r in query(sim, db, "SELECT k, v FROM t ORDER BY k")
    )
    return decisions, tids, commit_order, db.csn, rows


@settings(max_examples=40, deadline=None)
@given(specs=writeset_specs, batch_size=st.integers(min_value=2, max_value=8))
def test_batched_delivery_equals_per_message(specs, batch_size):
    """Strong conformance: with the same delivery instants, packing a
    group into one Batch instead of k back-to-back Messages changes
    NOTHING — decisions, tids, per-replica commit order, CSNs, state."""
    baseline = run_component(specs, batch_size, batched=False)
    batched = run_component(specs, batch_size, batched=True)
    assert batched == baseline
    # Timing-independent invariants also hold against fully spaced
    # one-message-per-instant delivery: certification decisions, tid
    # assignment, and final state (commit ORDER may legally differ —
    # adjustment 2 reorders non-conflicting commits).
    spaced = run_component(specs, batch_size=1, batched=False)
    assert spaced[0] == batched[0]  # decisions
    assert spaced[1] == batched[1]  # tids
    assert spaced[3] == batched[3]  # total commits -> same final csn
    assert spaced[4] == batched[4]  # final rows


@settings(max_examples=20, deadline=None)
@given(specs=writeset_specs, batch_size=st.integers(min_value=2, max_value=8))
def test_group_commit_preserves_equivalence(specs, batch_size):
    """Group commit changes cost accounting only: with it enabled on both
    sides the batched run still matches per-message exactly, and the
    whole quadruple matches the no-group-commit run."""
    baseline = run_component(specs, batch_size, batched=False, group_commit=True)
    batched = run_component(specs, batch_size, batched=True, group_commit=True)
    assert batched == baseline
    # and group commit never changes any observable vs plain commit
    assert run_component(specs, batch_size, batched=True) == batched


@settings(max_examples=25, deadline=None)
@given(
    specs=writeset_specs,
    batch_size=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
def test_crash_prefix_of_batches_equals_prefix_of_messages(
    specs, batch_size, data
):
    """Uniform delivery makes a crash cut the stream at a batch boundary;
    the surviving prefix must equal per-message delivery of exactly those
    messages (and of those messages only)."""
    n_total = len(chunk(make_records(specs), batch_size))
    n_batches = data.draw(st.integers(min_value=0, max_value=n_total))
    delivered = sum(
        len(b) for b in chunk(make_records(specs), batch_size)[:n_batches]
    )
    baseline = run_component(specs[:delivered], batch_size, batched=False)
    truncated = run_component(
        specs, batch_size, batched=True, n_batches=n_batches
    )
    assert truncated == baseline


def _run_cluster(batching: bool):
    gcs = (
        GcsConfig(batch_max_messages=4, batch_window=0.004)
        if batching
        else GcsConfig()
    )
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=11,
            gcs=gcs,
            group_commit=batching,
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(40)])
    driver = Driver(cluster.network, cluster.discovery)
    outcomes: dict[str, int] = {}

    def client(cid):
        conn = yield from driver.connect(
            cluster.new_client_host(), address=f"R{cid % 3}"
        )
        for i in range(8):
            key = cid * 8 + i  # disjoint keys: no certification aborts
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (cid * 100 + i, key)
            )
            yield from conn.commit()
            outcomes[f"{cid}:{i}"] = cid * 100 + i

    for cid in range(5):
        sim.spawn(client(cid), name=f"c{cid}")
    sim.run(until=20.0)
    states = {
        tuple(
            (r["k"], r["v"])
            for r in query(sim, rep.node.db, "SELECT k, v FROM kv ORDER BY k")
        )
        for rep in cluster.replicas
    }
    assert len(states) == 1, "replicas diverged"
    report = cluster.one_copy_report()
    return outcomes, states.pop(), report


def test_cluster_level_outcomes_match_unbatched(monkeypatch):
    monkeypatch.setattr(GcsConfig, "jitter", 0.0)
    monkeypatch.setattr(ClusterConfig, "net_jitter", 0.0)
    unbatched = _run_cluster(batching=False)
    batched = _run_cluster(batching=True)
    assert batched[0] == unbatched[0]  # every transaction committed in both
    assert batched[1] == unbatched[1]  # identical final replicated state
    assert unbatched[2].ok and batched[2].ok
