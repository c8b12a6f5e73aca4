"""A bulk load is validated and packed once per deployment.

Every replica starts from the same initial rows (read-one-write-all),
and a stored row is an immutable tuple, so ``SIRepCluster.bulk_load``
(and a comparator's) validates each row once and every replica and
reader installs the same tuple object.  Everything that would stop an
install is checked before any engine installs a row, so a bad load
leaves no engine half-loaded and no log holding its LOAD record.  A
LOAD record replayed from disk is still validated by the engine that
replays it.
"""

import tracemalloc

import pytest

from repro.core import ClusterConfig, SIRepCluster
from repro.core.baselines import CentralizedSystem
from repro.core.kernel_replication import KernelReplicatedSystem
from repro.core.replica import ReplicaNode
from repro.durable import DurabilityConfig
from repro.durable.log import LOAD, LogRecord, WritesetLog
from repro.errors import CatalogError, IntegrityError
from repro.sim import Simulator
from repro.storage import Database

DDL = ["CREATE TABLE kv (k INT PRIMARY KEY, v INT, note TEXT)"]
ROWS = [{"k": k, "v": k * 10, "note": f"n{k}"} for k in range(50)]


def cluster_of(log_dir=None):
    """Three durable replicas (logs in memory without ``log_dir``) and
    a reader, with the schema loaded."""
    cluster = SIRepCluster(ClusterConfig(
        n_replicas=3, read_replicas=1, durability=DurabilityConfig(log_dir=log_dir)
    ))
    cluster.load_schema(DDL)
    return cluster


def engines(cluster):
    return [node.db for node in (*cluster.replicas, *cluster.readers)]


def count_validations(dbs, table):
    """Wrap ``table``'s ``validate_row`` on every engine in ``dbs``;
    returns the list each call appends to."""
    calls = []
    for db in dbs:
        schema = db.catalog.table(table).schema
        validate_row = schema.validate_row

        def counted(values, validate_row=validate_row):
            calls.append(values)
            return validate_row(values)

        object.__setattr__(schema, "validate_row", counted)
    return calls


def test_a_cluster_validates_each_row_once_not_once_per_engine():
    cluster = cluster_of()
    assert len(engines(cluster)) == 4  # three replicas and a reader
    calls = count_validations(engines(cluster), "kv")
    cluster.bulk_load("kv", ROWS)
    assert len(calls) == len(ROWS)
    cluster.bulk_load("kv", [{"k": 100 + k} for k in range(7)])
    assert len(calls) == len(ROWS) + 7
    for db in engines(cluster):
        assert len(db.catalog.table("kv").rows) == len(ROWS) + 7


def test_every_replica_and_reader_stores_the_same_tuple():
    cluster = cluster_of()
    cluster.bulk_load("kv", ROWS)
    first, *others = [db.catalog.table("kv").rows for db in engines(cluster)]
    for row in ROWS:
        stored = first[row["k"]].values
        assert stored == (row["k"], row["v"], row["note"])
        for heads in others:
            assert heads[row["k"]].values is stored


def test_a_comparator_validates_once_and_shares_too():
    system = KernelReplicatedSystem(ClusterConfig(n_replicas=3))
    system.load_schema(DDL)
    dbs = [node.db for node in system.nodes]
    calls = count_validations(dbs, "kv")
    system.bulk_load("kv", ROWS)
    assert len(calls) == len(ROWS)
    stored = [db.catalog.table("kv").rows[3].values for db in dbs]
    assert all(values is stored[0] for values in stored)


def logged_kinds(cluster):
    return [
        [record.kind for record in replica.wslog.records_after(0)]
        for replica in cluster.replicas
    ]


BAD_LAST_ROWS = {
    "a value of the wrong type": ({"k": 50, "v": "fifty"}, IntegrityError),
    "an unknown column": ({"k": 50, "colour": "red"}, CatalogError),
    "a key that repeats in the load": ({"k": 3, "v": 0}, IntegrityError),
}


@pytest.mark.parametrize("bad", BAD_LAST_ROWS, ids=list(BAD_LAST_ROWS))
def test_a_bad_last_row_loads_and_logs_nothing_anywhere(tmp_path, bad):
    cluster = cluster_of(tmp_path)
    row, error = BAD_LAST_ROWS[bad]
    try:
        with pytest.raises(error):
            cluster.bulk_load("kv", ROWS + [row])
        for db in engines(cluster):
            assert db.catalog.table("kv").rows == {}, db.name
        assert logged_kinds(cluster) == [["ddl"]] * 3
        # the load can then go ahead: nothing of the failed one is left
        cluster.bulk_load("kv", ROWS)
        assert logged_kinds(cluster) == [["ddl", "load"]] * 3
    finally:
        cluster.stop()
    for replica in cluster.replicas:
        [segment] = (tmp_path / replica.name / "log").glob("seg-*.jsonl")
        assert [line[0] for line in segment.read_text().splitlines()] == ["d", "l"]


def test_a_key_already_stored_fails_before_any_engine_installs():
    cluster = cluster_of()
    cluster.bulk_load("kv", ROWS[:10])
    with pytest.raises(IntegrityError, match="duplicate bulk key 9"):
        cluster.bulk_load("kv", [{"k": 60}, {"k": 9}])
    for db in engines(cluster):
        assert sorted(db.catalog.table("kv").rows) == list(range(10))
    assert logged_kinds(cluster) == [["ddl", "load"]] * 3


def test_engines_that_define_a_table_differently_cannot_share_its_rows():
    system = CentralizedSystem(ClusterConfig())
    other = Database(Simulator(), "other")
    system.load_schema(DDL)
    other.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, note TEXT)")
    system.nodes.append(ReplicaNode(name="other", db=other, cpu=None, disk=None))
    with pytest.raises(CatalogError, match="defines 'kv'"):
        system.bulk_load("kv", ROWS)
    assert all(node.db.catalog.table("kv").rows == {} for node in system.nodes)


def test_a_load_record_replayed_from_disk_is_still_validated(tmp_path):
    cluster = cluster_of(tmp_path)
    cluster.bulk_load("kv", ROWS)
    cluster.stop()
    log_dir = tmp_path / "R0" / "log"
    [segment] = log_dir.glob("seg-*.jsonl")
    text = segment.read_text()
    assert '"v": 30,' in text
    segment.write_text(text.replace('"v": 30,', '"v": "thirty",'))
    records = WritesetLog("R0", directory=log_dir).records_after(0)
    assert [record.kind for record in records] == ["ddl", LOAD]
    db = Database(Simulator(), "replay")
    records[0].install(db)
    with pytest.raises(IntegrityError, match="expects INT"):
        records[1].install(db)


def test_a_load_record_still_holds_the_callers_rows():
    """Validation coerces (an INT into a FLOAT column) in the stored
    tuple only: the LOAD line is built from the caller's dicts, as it
    was before rows were validated once."""
    cluster = SIRepCluster(ClusterConfig(n_replicas=2, durability=DurabilityConfig()))
    cluster.load_schema(["CREATE TABLE p (id INT PRIMARY KEY, price FLOAT)"])
    cluster.bulk_load("p", [{"id": 1, "price": 2}])
    [record] = cluster.replicas[1].wslog.records_after(1)
    assert record == LogRecord.load(2, "p", [{"id": 1, "price": 2}])
    assert cluster.replicas[1].db.catalog.table("p").rows[1].values == (1, 2.0)


# -- the memory guard ----------------------------------------------------------


def loaded_bytes_per_row(n_replicas, n):
    cluster = SIRepCluster(ClusterConfig(n_replicas=n_replicas))
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    rows = [{"k": i, "v": i} for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster.bulk_load("kv", rows)
        return (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()


def test_a_second_and_third_replica_add_less_than_one_engine():
    """tracemalloc bytes per bulk-loaded two-column row of a 20 000-row
    load (CPython 3.11): one replica stores 141 B (tuple, version and
    table entry); each further replica adds its version and table entry,
    86 B, and added 142 B when it packed a tuple of its own."""
    n = 20_000
    one = loaded_bytes_per_row(1, n)
    added = (loaded_bytes_per_row(3, n) - one) / 2
    assert added < 100, (added, one)
