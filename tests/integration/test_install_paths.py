"""Every way state enters a fresh engine ends in the same state.

A replica or reader that did not live through the whole run — delta or
full recovery, an elastic join, a cold restart, a reader joining by log
or by snapshot — must end with the committed rows, the DDL history and
the csn (a reader's watermark) of a replica that did, and the offline
Def. 3 audit must pass.  Each path's durable outcome — recovery stats,
log bounds, checkpoints, the replayed prefix — is pinned too.  The two
regression tests pin the install-path bugs: a full-state joiner whose
csn restarted at 0 (so a session-token read was never answered), and a
cold restart with readers failing once a log had been truncated; the
``full-then-*`` paths pin a durable replica that once installed a full
state, whose own state can no longer replay.

The last group checks what the installer costs: its compiled row
validator agrees with the per-column check, an install pauses the cyclic
collector and always gives it back, and a bulk load builds one genesis
LOAD record that every replica logs at the same seq.
"""

import enum
import functools
import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster, protocol
from repro.core.cluster import build_surface
from repro.durable import DurabilityConfig, DurabilityStore, StabilityTracker
from repro.durable.watermark import AGGRESSIVE
from repro.durable.log import LOAD, LogRecord
from repro.errors import CatalogError, IntegrityError
from repro.sim import Simulator
from repro.storage import Database
from repro.storage.catalog import COLUMN_TYPES, ColumnDef, TableSchema

EXTRA_DDL = "CREATE TABLE extra (id INT PRIMARY KEY, v INT)"


def truncating():
    return DurabilityConfig(checkpoint_interval=0.4, segment_records=4)


def make_cluster(seed, store=None, **kwargs):
    config = ClusterConfig(n_replicas=3, seed=seed, **kwargs)
    cluster = SIRepCluster(config, surface=build_surface(config, store))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 6)])
    return cluster, itertools.count(1000)


def settle(cluster, seconds=5.0):
    cluster.sim.run()
    cluster.sim.run(until=cluster.sim.now + seconds)


def traffic(cluster, keys, n, start, spacing=0.05, address="R1", ddl=False):
    """``n`` single-statement transactions through ``address``: updates
    and inserts (new primary keys drawn from ``keys``), and (``ddl``) one
    replicated CREATE first plus inserts into the new table."""
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)

    def client():
        yield sim.sleep(start)
        conn = yield from driver.connect(cluster.new_client_host(), address=address)
        if ddl:
            yield from conn.execute(EXTRA_DDL)
        for i in range(n):
            fresh = next(keys)
            if i % 7 == 3:
                statement = "INSERT INTO kv (k, v) VALUES (?, ?)", (fresh, i)
            elif i % 7 == 5 and ddl:
                statement = "INSERT INTO extra (id, v) VALUES (?, ?)", (fresh, i)
            else:
                statement = "UPDATE kv SET v = ? WHERE k = ?", (i, 1 + i % 5)
            yield from conn.execute(*statement)
            yield from conn.commit()
            yield sim.sleep(spacing)
        conn.close()

    sim.spawn(client(), name=f"traffic@{start}")


def engine_state(node):
    """What an install path must reproduce: rows, DDL history, csn."""
    db = node.db
    rows = {
        table: sorted(table_rows, key=repr)
        for table, table_rows in db.export_committed().items()
    }
    return rows, tuple(db.ddl_log), db.csn


# -- the paths: each returns (cluster, [nodes under test], reference state) ------


def delta_recovery():
    cluster, keys = make_cluster(1, durability=DurabilityConfig())
    cluster.sim.call_at(0.2, lambda: cluster.crash(0))
    traffic(cluster, keys, 12, 0.3, ddl=True)
    cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0))
    traffic(cluster, keys, 6, 2.0)
    settle(cluster)
    assert cluster.replicas[0].recovery.stats["checkpoint"] is False
    return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])


def delta_with_checkpoint():
    with pytest.MonkeyPatch.context() as patch:
        # survivors truncate past the crashed R0
        patch.setattr(StabilityTracker, "policy", AGGRESSIVE)
        cluster, keys = make_cluster(12, durability=truncating())
        cluster.sim.call_at(0.2, lambda: cluster.crash(0))
        traffic(cluster, keys, 30, 0.3, ddl=True)
        cluster.sim.call_at(4.0, lambda: cluster.recover_replica(0))
        traffic(cluster, keys, 6, 4.5)
        settle(cluster, 8.0)
    assert cluster.replicas[0].recovery.stats["checkpoint"] is True
    return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])


def full_recovery():
    cluster, keys = make_cluster(2)
    cluster.sim.call_at(0.2, lambda: cluster.crash(0))
    traffic(cluster, keys, 12, 0.3, ddl=True)
    cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
    traffic(cluster, keys, 6, 1.5)
    settle(cluster)
    assert cluster.replicas[0].recovery.stats["mode"] == "full"
    return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])


def elastic_join(durable):
    cluster, keys = make_cluster(21, durability=DurabilityConfig() if durable else None)
    traffic(cluster, keys, 12, 0.1, ddl=True)
    cluster.sim.call_at(0.5, lambda: cluster.add_replica())
    traffic(cluster, keys, 6, 1.0)
    settle(cluster)
    return cluster, [cluster.replicas[3]], engine_state(cluster.replicas[1])


def cold_restart(durability, read_replicas=0):
    store = DurabilityStore(durability)
    cluster, keys = make_cluster(31, store=store, read_replicas=read_replicas)
    traffic(cluster, keys, 30, 0.1, ddl=True)
    settle(cluster, 3.0)
    reference = engine_state(cluster.replicas[1])
    cluster.stop()
    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=3, seed=32, read_replicas=read_replicas),
        store,
    )
    return restarted, [*restarted.replicas, *restarted.readers], reference


def reader_join(durable):
    cluster, keys = make_cluster(13, durability=DurabilityConfig() if durable else None)
    traffic(cluster, keys, 12, 0.1, ddl=True)
    settle(cluster, 1.0)
    cluster.add_reader()
    traffic(cluster, keys, 6, 0.1)
    settle(cluster)
    return cluster, cluster.readers, engine_state(cluster.replicas[1])


def full_then(rejoin):
    """R0 recovers by full state on a durable cluster, so its rebased log
    has no checkpoint under it; it crashes again, then ``rejoin``s."""
    store = DurabilityStore(DurabilityConfig())
    cluster, keys = make_cluster(41, store=store)
    cluster.sim.call_at(0.2, lambda: cluster.crash(0))
    traffic(cluster, keys, 12, 0.3, ddl=True)
    cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
    traffic(cluster, keys, 6, 2.0)
    settle(cluster)
    assert cluster.replicas[0].wslog.start_seq > 1
    cluster.crash(0)
    traffic(cluster, keys, 6, 0.1)
    settle(cluster, 1.0)
    if rejoin == "delta":
        # the default asks for a delta only when our own state can replay
        cluster.recover_replica(0)
        traffic(cluster, keys, 6, 0.5)
        settle(cluster)
        assert cluster.replicas[0].recovery.stats["mode"] == "full"
        return cluster, [cluster.replicas[0]], engine_state(cluster.replicas[1])
    reference = engine_state(cluster.replicas[1])
    cluster.stop()
    restarted = SIRepCluster.cold_restart(ClusterConfig(n_replicas=3, seed=42), store)
    # leveled by full state from the longest log that can replay
    assert restarted.replicas[0].recovery.stats["mode"] == "full"
    return restarted, restarted.replicas, reference


PATHS = {
    "delta-recovery": delta_recovery,
    "delta-checkpoint": delta_with_checkpoint,
    "full-recovery": full_recovery,
    "elastic-join-durable": lambda: elastic_join(True),
    "elastic-join": lambda: elastic_join(False),
    "cold-restart": lambda: cold_restart(DurabilityConfig()),
    "cold-restart-truncated": lambda: cold_restart(truncating()),
    "reader-join-log": lambda: reader_join(True),
    "reader-join-snapshot": lambda: reader_join(False),
    "cold-restart-reader": lambda: cold_restart(DurabilityConfig(), 1),
    "cold-restart-truncated-reader": lambda: cold_restart(truncating(), 1),
    "full-then-delta": lambda: full_then("delta"),
    "full-then-cold-restart": lambda: full_then("cold-restart"),
}


@functools.cache
def run_path(name):
    """Each path runs once per session; both tests below read it."""
    return PATHS[name]()


@pytest.mark.parametrize("name", PATHS)
def test_every_install_path_ends_in_the_same_state(name):
    cluster, joiners, reference = run_path(name)
    rows, ddl, csn = reference
    assert EXTRA_DDL in ddl and csn > 0
    for node in joiners:
        assert engine_state(node) == reference, node.name
        if node in cluster.readers:
            assert node.watermark == csn
    report = cluster.one_copy_report()
    assert report.ok, [str(v) for v in report.violations]


def durable_outcome(cluster):
    """Per replica: recovery stats, the log's (start, tip, durable,
    rebased_at) seqs, its checkpoint seqs, the replayed prefix's length
    and whether the replica stays in the offline audit."""
    outcome = {}
    for replica in cluster.replicas:
        log = checkpoints = None
        if cluster.durable_store is not None:
            durable = cluster.durable_store.replica(replica.name)
            wslog = durable.log
            log = (wslog.start_seq, wslog.tip_seq, wslog.durable_seq, wslog.rebased_at)
            checkpoints = [checkpoint.seq for checkpoint in durable.checkpoints.checkpoints]
        outcome[replica.name] = (
            replica.recovery.stats, log, checkpoints,
            len(replica.recovery.replayed), replica.recovery.audit_complete,
        )
    return outcome


#: each path"s durable_outcome, recorded at the parent of the change that
#: added the ``full-then-*`` paths (those two at that change itself)
PINNED = {
    "delta-recovery": {
        "R0": (
            {"mode": "delta", "donor": "R1", "from_seq": 2,
             "records": 13, "bytes": 809, "checkpoint": False},
            (1, 21, 21, None), [], 12, True,
        ),
        "R1": ({}, (1, 21, 21, None), [], 0, True),
        "R2": ({}, (1, 21, 21, None), [], 0, True),
    },
    "delta-checkpoint": {
        "R0": (
            {"mode": "delta", "donor": "R1", "from_seq": 33,
             "records": 0, "bytes": 1113, "checkpoint": True},
            (38, 39, 39, 33), [33, 39], 0, False,
        ),
        "R1": ({}, (37, 39, 39, None), [33, 39], 0, True),
        "R2": ({}, (37, 39, 39, None), [33, 39], 0, True),
    },
    "full-recovery": {
        "R0": (
            {"mode": "full", "donor": "R1", "from_seq": 0,
             "records": 8, "bytes": 582, "checkpoint": False},
            None, None, 0, False,
        ),
        "R1": ({}, None, None, 0, True),
        "R2": ({}, None, None, 0, True),
    },
    "elastic-join-durable": {
        "R0": ({}, (1, 21, 21, None), [], 0, True),
        "R1": ({}, (1, 21, 21, None), [], 0, True),
        "R2": ({}, (1, 21, 21, None), [], 0, True),
        "R3": (
            {"mode": "delta", "donor": "R0", "from_seq": 0,
             "records": 11, "bytes": 701, "checkpoint": False},
            (1, 21, 21, None), [], 8, True,
        ),
    },
    "elastic-join": {
        "R0": ({}, None, None, 0, True),
        "R1": ({}, None, None, 0, True),
        "R2": ({}, None, None, 0, True),
        "R3": (
            {"mode": "full", "donor": "R0", "from_seq": 0,
             "records": 7, "bytes": 467, "checkpoint": False},
            None, None, 0, False,
        ),
    },
    "cold-restart": {
        "R0": (
            {"mode": "cold", "records": 30, "checkpoint": False},
            (1, 33, 33, None), [], 30, True,
        ),
        "R1": (
            {"mode": "cold", "records": 30, "checkpoint": False},
            (1, 33, 33, None), [], 30, True,
        ),
        "R2": (
            {"mode": "cold", "records": 30, "checkpoint": False},
            (1, 33, 33, None), [], 30, True,
        ),
    },
    "cold-restart-truncated": {
        "R0": (
            {"mode": "cold", "records": 0, "checkpoint": True},
            (33, 33, 33, None), [32, 33], 0, False,
        ),
        "R1": (
            {"mode": "cold", "records": 0, "checkpoint": True},
            (33, 33, 33, None), [32, 33], 0, False,
        ),
        "R2": (
            {"mode": "cold", "records": 0, "checkpoint": True},
            (33, 33, 33, None), [32, 33], 0, False,
        ),
    },
    "reader-join-log": {
        "R0": ({}, (1, 21, 21, None), [], 0, True),
        "R1": ({}, (1, 21, 21, None), [], 0, True),
        "R2": ({}, (1, 21, 21, None), [], 0, True),
    },
    "reader-join-snapshot": {
        "R0": ({}, None, None, 0, True),
        "R1": ({}, None, None, 0, True),
        "R2": ({}, None, None, 0, True),
    },
    "cold-restart-reader": {
        "R0": (
            {"mode": "cold", "records": 30, "checkpoint": False},
            (1, 33, 33, None), [], 30, True,
        ),
        "R1": (
            {"mode": "cold", "records": 30, "checkpoint": False},
            (1, 33, 33, None), [], 30, True,
        ),
        "R2": (
            {"mode": "cold", "records": 30, "checkpoint": False},
            (1, 33, 33, None), [], 30, True,
        ),
    },
    "cold-restart-truncated-reader": {
        "R0": (
            {"mode": "cold", "records": 0, "checkpoint": True},
            (33, 33, 33, None), [32, 33], 0, False,
        ),
        "R1": (
            {"mode": "cold", "records": 0, "checkpoint": True},
            (33, 33, 33, None), [32, 33], 0, False,
        ),
        "R2": (
            {"mode": "cold", "records": 0, "checkpoint": True},
            (33, 33, 33, None), [32, 33], 0, False,
        ),
    },
    "full-then-delta": {
        "R0": (
            {"mode": "full", "donor": "R1", "from_seq": 27,
             "records": 10, "bytes": 899, "checkpoint": False},
            (28, 33, 33, 27), [], 0, False,
        ),
        "R1": ({}, (1, 33, 33, None), [], 0, True),
        "R2": ({}, (1, 33, 33, None), [], 0, True),
    },
    "full-then-cold-restart": {
        "R0": (
            {"mode": "full", "donor": "R1", "from_seq": 27,
             "records": 10, "bytes": 899, "checkpoint": False},
            (28, 27, 27, 27), [], 0, False,
        ),
        "R1": (
            {"mode": "cold", "records": 24, "checkpoint": False},
            (1, 27, 27, None), [], 24, True,
        ),
        "R2": (
            {"mode": "cold", "records": 24, "checkpoint": False},
            (1, 27, 27, None), [], 24, True,
        ),
    },
}


@pytest.mark.parametrize("name", PATHS)
def test_every_install_path_pins_its_durable_outcome(name):
    cluster, _joiners, _reference = run_path(name)
    assert durable_outcome(cluster) == PINNED[name]


# -- regression: a full-state joiner's csn --------------------------------------


def token_read_answered(cluster, replica, token) -> bool:
    """Send a session-token read over a raw channel; True iff answered."""
    sim = cluster.sim
    replies = []

    def probe():
        channel = cluster.network.connect(
            cluster.new_client_host(), replica.host.address
        )
        channel.client_end.send(protocol.ExecuteReq(
            1, "SELECT v FROM kv WHERE k = 1", min_csn=token
        ))
        replies.append((yield from channel.client_end.recv()))

    sim.spawn(probe(), name="token-read")
    sim.run(until=sim.now + 2.0)
    return bool(replies) and replies[0].ok


@pytest.mark.parametrize("how", ["add_replica", "recover_full"])
def test_full_state_joiner_csn_counts_certified_commits(how):
    cluster, keys = make_cluster(23)
    traffic(cluster, keys, 20, 0.1, spacing=0.02)
    if how == "add_replica":
        cluster.sim.call_at(1.5, lambda: cluster.add_replica())
        index = 3
    else:
        cluster.sim.call_at(0.05, lambda: cluster.crash(0))
        cluster.sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
        index = 0
    traffic(cluster, keys, 5, 2.0)
    settle(cluster)
    joiner = cluster.replicas[index]
    assert joiner.recovery.stats["mode"] == "full"
    tip = cluster.replicas[1].validation.certifier.last_validated_tid
    assert {r.db.csn for r in cluster.alive_replicas()} == {tip}
    assert token_read_answered(cluster, joiner, tip)


# -- regression: cold restart with readers after truncation ---------------------


def test_cold_restart_with_reader_after_log_truncation():
    store = DurabilityStore(truncating())
    cluster, keys = make_cluster(11, store=store, read_replicas=1)
    traffic(cluster, keys, 30, 0.1)
    settle(cluster, 3.0)
    assert min(r.wslog.start_seq for r in cluster.replicas) > 1  # truncated
    cluster.stop()
    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=3, seed=11, read_replicas=1),
        store,
    )
    (reader,) = restarted.readers
    expected = restarted.replicas[0].db.export_committed()
    assert reader.db.export_committed() == expected
    assert reader.watermark == restarted.replicas[0].db.csn


# -- the installer's cost: row validator, collector pause, genesis record -------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


def per_column_loop(schema, values):
    """The row check as a plain loop over ``ColumnDef.check``: the
    reference the compiled validator must agree with."""
    unknown = set(values) - schema.positions.keys()
    if unknown:
        raise CatalogError(
            f"unknown column(s) {sorted(unknown)} for table {schema.name!r}"
        )
    return {col.name: col.check(values.get(col.name)) for col in schema.columns}


@st.composite
def schemas(draw):
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    pk = draw(st.sampled_from(names))
    return TableSchema("t", tuple(
        ColumnDef(
            name,
            draw(st.sampled_from(sorted(COLUMN_TYPES))),
            primary_key=name == pk,
            not_null=draw(st.booleans()),
        )
        for name in names
    ))


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.sampled_from(list(Level)),
    st.builds(Label, st.text(max_size=3)),
)


def outcome(check, values):
    """The row (items in order, and each value's type) or the error."""
    try:
        row = check(values)
    except (CatalogError, IntegrityError) as error:
        return type(error), str(error)
    return list(row.items()), [type(value) for value in row.values()]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_compiled_validator_matches_the_per_column_check(data):
    schema = data.draw(schemas())
    # present, missing and unknown ("x") columns, in any order
    keys = st.sampled_from([*schema.column_names, "x"])
    values = data.draw(st.dictionaries(keys, VALUES, max_size=5))
    assert outcome(lambda v: schema.image(schema.validate_row(v)), values) == outcome(
        lambda v: per_column_loop(schema, v), values
    )


def kv_engine():
    db = Database(Simulator(), "gc")
    db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    return db


@pytest.fixture
def collector():
    """Restores the collector state the test found."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_install_gives_the_collector_back(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    seen = []

    def rows(keys):
        for k in keys:
            seen.append(gc.isenabled())
            yield {"k": k, "v": 0}

    db = kv_engine()
    assert db.bulk_load("kv", rows(range(10))) == 10
    assert seen == [False] * 10 and gc.isenabled() is enabled
    with pytest.raises(IntegrityError, match="duplicate bulk key 5"):
        db.bulk_load("kv", rows([20, 21, 5, 22]))
    assert gc.isenabled() is enabled
    with pytest.raises(IntegrityError, match="duplicate checkpoint key 3"):
        kv_engine().install_snapshot(
            [], {"kv": [{"k": 3, "v": 0}, {"k": 3, "v": 1}]}, csn=7
        )
    assert gc.isenabled() is enabled


def durable_kv_cluster(log_dir=None, seed=5):
    store = DurabilityStore(DurabilityConfig(log_dir=log_dir))
    config = ClusterConfig(n_replicas=3, seed=seed)
    cluster = SIRepCluster(config, surface=build_surface(config, store))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    return cluster, store


@pytest.mark.parametrize("target", ["engine", "durable-cluster"])
def test_bulk_load_runs_no_cyclic_collection(collector, target):
    """Exact count: a 20 000-row load runs no collection; the one
    young-generation pass over what it built comes at the caller's next
    allocation.  Without the pause the same load ran 114 collections on
    one engine, and 428 on a durable three-replica cluster."""
    system = kv_engine() if target == "engine" else durable_kv_cluster()[0]
    rows = [{"k": k, "v": 0} for k in range(20_000)]
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        system.bulk_load("kv", rows)
        during = len(generations)  # an int: no allocation
    finally:
        gc.callbacks.remove(count)
    assert during == 0


def test_genesis_load_record_is_shared_and_replays(tmp_path):
    rows = [{"k": k, "v": k % 3} for k in range(1, 51)]
    cluster, store = durable_kv_cluster(str(tmp_path))
    cluster.bulk_load("kv", rows)
    loads = [
        [r for r in replica.wslog.records_after(0) if r.kind == LOAD]
        for replica in cluster.replicas
    ]
    # one record per replica, at one seq, with the same bytes as a
    # record built for that replica alone
    (record,) = loads[0]
    assert all(load == [record] for load in loads)
    alone = LogRecord.load(record.seq, "kv", rows)
    assert (record.line, record.nbytes) == (alone.line, alone.nbytes)
    assert record.line == json.dumps([record.seq, "kv", rows])
    # each replica writes its own file, holding that line
    for replica in cluster.replicas:
        text = "".join(
            path.read_text() for path in sorted((tmp_path / replica.name / "log").glob("seg-*"))
        )
        assert f"l{record.line}\n" in text
    # the engines share one immutable tuple per row, apart from the
    # log's row dicts
    images = [
        [head.values for head in replica.db.catalog.table("kv").rows.values()]
        for replica in cluster.replicas
    ]
    for image in images[1:]:
        assert all(row is first for row, first in zip(image, images[0], strict=True))
    ids = [id(row) for row in images[0]] + [id(row) for row in record.rows]
    assert len(set(ids)) == len(ids)
    expected = cluster.replicas[0].db.export_committed()
    cluster.stop()
    restarted = SIRepCluster.cold_restart(
        ClusterConfig(n_replicas=3, seed=6),
        DurabilityStore(store.config),
    )
    for replica in restarted.replicas:
        assert replica.db.export_committed() == expected
    restarted.stop()
