"""Stored rows are compact tuples; rows outside the engine stay dicts.

A committed row version keeps its values as a tuple in the schema's
column order.  Every way a row enters an engine must store that form:
bulk load, local commit, remote writeset apply, log replay, checkpoint
restore, a full state transfer and a reader's snapshot join.  What
crosses the engine's boundary does not change: staged after-images,
client result rows, ``export_committed()`` and a replica's image are
the dicts they were when rows were stored as dicts.  The pinned values
in ``fixtures/row_images.json`` were recorded with dict-stored rows.

Re-record (only for a change meant to move results):
``PYTHONPATH=src python tests/storage/test_row_images.py --record``.
"""

import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.validation import Certifier
from repro.durable import Checkpoint
from repro.durable.log import LogRecord
from repro.sim import Simulator
from repro.storage import Database
from repro.storage.catalog import COLUMN_TYPES
from repro.storage.writeset import WriteSet

FIXTURE = Path(__file__).parent / "fixtures" / "row_images.json"

DDL = (
    "CREATE TABLE item (id INT PRIMARY KEY, name TEXT NOT NULL, price FLOAT, active BOOL)",
    "CREATE TABLE line (id INT PRIMARY KEY, item INT REFERENCES item, qty INT)",
    "CREATE INDEX i_line_item ON line (item)",
)
ITEMS = [
    {"id": i, "name": f"item{i}", "price": i * 1.25, "active": i % 2 == 0}
    for i in range(1, 7)
]
# an incomplete row: the columns it leaves out are stored as NULL
ITEMS.append({"id": 7, "name": "bare"})
LINES = [{"id": i, "item": 1 + i % 3, "qty": i} for i in range(1, 6)]


def engine(name="R"):
    db = Database(Simulator(), name)
    for sql in DDL:
        db.run_ddl(sql)
    db.bulk_load("item", ITEMS)
    db.bulk_load("line", LINES)
    return db


def run(db, txn, sql, params=()):
    return db.sim.run_process(db.execute(txn, sql, params))


def assert_compact(db):
    """Every stored version is a tuple in schema order (its pk at the
    pk's position, each value of its column's type), or None."""
    stored = 0
    for table in db.catalog.tables.values():
        schema = table.schema
        kinds = [COLUMN_TYPES[column.type][0] for column in schema.columns]
        for pk, head in table.rows.items():
            for version in head:
                values = version.values
                if values is None:
                    continue
                assert type(values) is tuple, (table.name, pk, values)
                assert len(values) == len(kinds)
                assert values[schema.pk_position] == pk
                assert all(v is None or type(v) is k for v, k in zip(values, kinds))
                stored += 1
    assert stored > 0


def wire(value):
    """``value`` as JSON reads it back (tuples become lists)."""
    return json.loads(json.dumps(value))


def assert_pinned(observed, pinned):
    assert observed == pinned
    assert json.dumps(observed) == json.dumps(pinned)  # key order too


# -- the install paths ---------------------------------------------------------


def committed_writeset(db):
    """Insert, update and delete in one local transaction; returns its
    writeset, staged before the commit."""
    txn = db.begin(gid="g1")
    run(db, txn, "INSERT INTO item (id, name, price) VALUES (?, ?, ?)", (20, "fresh", 2))
    run(db, txn, "UPDATE item SET price = price + 1 WHERE id = 2")
    run(db, txn, "DELETE FROM line WHERE id = 3")
    run(db, txn, "DELETE FROM item WHERE id = 6")
    writeset = db.get_writeset(txn)
    db.sim.run_process(db.commit(txn))
    return writeset


def test_bulk_load_and_local_commit_store_tuples():
    db = engine()
    assert_compact(db)
    reader = db.begin()  # keeps the versions the commit replaces
    committed_writeset(db)
    assert_compact(db)
    deleted = db.catalog.table("item").rows[6]
    assert deleted.values is None and type(deleted.prev.values) is tuple
    assert db.read_row(reader, db.catalog.table("item"), 6) == (6, "item6", 7.5, True)


def test_remote_apply_and_log_replay_store_tuples():
    source = engine("A")
    writeset = committed_writeset(source)
    expected = source.export_committed()

    remote = engine("B")
    txn = remote.begin(gid="g1", remote=True)
    remote.sim.run_process(
        remote.apply_writeset(txn, WriteSet.from_wire(writeset.to_wire()))
    )
    remote.sim.run_process(remote.commit(txn))
    assert_compact(remote)
    assert remote.export_committed() == expected

    replayed = engine("C")
    record = LogRecord.ws(1, "g1", 1, "A", writeset)
    LogRecord.from_line(record.to_line()).install(replayed)
    assert_compact(replayed)
    assert replayed.export_committed() == expected


def test_checkpoint_restore_stores_tuples():
    source = engine("A")
    committed_writeset(source)
    checkpoint = Checkpoint.capture(
        seq=1, cert_seq=1, applied_beyond=(), csn=source.csn, ddl=source.ddl_log,
        rows=source.export_committed(), certifier=Certifier(), outcomes={},
    )
    saved = Checkpoint.from_json(wire(checkpoint.to_json()))
    for image in (checkpoint, saved):
        restored = Database(Simulator(), "R")
        restored.install_snapshot(image.ddl, image.rows, image.csn)
        assert_compact(restored)
        assert restored.export_committed() == source.export_committed()
        assert restored.csn == source.csn


def test_a_stored_row_cannot_be_assigned_into():
    db = engine()
    head = db.catalog.table("item").rows[1]
    with pytest.raises(TypeError):
        head.values[1] = "changed"
    txn = db.begin()
    row = db.read_row(txn, db.catalog.table("item"), 1)
    with pytest.raises(TypeError):
        row[1] = "changed"
    assert run(db, txn, "SELECT name FROM item WHERE id = 1").rows == [{"name": "item1"}]


# -- read-your-own-writes ------------------------------------------------------


def own_writes():
    """What one transaction sees of its own staged writes, through
    ``read_row``, ``scan``, UPDATE ... WHERE on rows it already wrote,
    and SELECT (single table and join); with its staged after-images
    and its read sets."""
    db = engine()
    item = db.catalog.table("item")
    image = item.schema.image
    txn = db.begin()
    run(db, txn, "INSERT INTO item (id, name, price, active) VALUES (?, ?, ?, ?)",
        (10, "new", 1.5, True))
    run(db, txn, "UPDATE item SET price = price * 2 WHERE id = 1")
    run(db, txn, "DELETE FROM item WHERE id = 5")
    out = {
        "read_row": [
            None if (row := db.read_row(txn, item, pk)) is None else image(row)
            for pk in (1, 5, 10, 99)
        ],
        "scan": [[pk, image(row)] for pk, row in db.scan(txn, item)],
        "scan_candidates": [
            [pk, image(row)] for pk, row in db.scan(txn, item, candidates=[10, 5, 1])
        ],
    }
    # non-covering, then covering UPDATEs of rows this transaction wrote
    run(db, txn, "UPDATE item SET name = 'again', price = price + 1 WHERE id = 10")
    run(db, txn, "UPDATE item SET active = FALSE WHERE id = 1 AND price > 2")
    run(db, txn, "UPDATE item SET name = 'blind', price = 0.5, active = TRUE WHERE id = 1")
    run(db, txn, "UPDATE item SET name = 'by value', price = 9.0, active = NULL "
        "WHERE id = 10 AND active = TRUE")
    run(db, txn, "INSERT INTO line (id, item, qty) VALUES (?, ?, ?)", (9, 10, 4))
    run(db, txn, "UPDATE line SET qty = qty + 10 WHERE item = 10")
    out["select"] = run(db, txn, "SELECT * FROM item ORDER BY id").rows
    out["join"] = run(
        db, txn,
        "SELECT l.id, i.name, l.qty FROM line l JOIN item i ON l.item = i.id "
        "WHERE i.id >= 2 ORDER BY l.id",
    ).rows
    out["join_star"] = run(
        db, txn, "SELECT * FROM line JOIN item ON line.item = item.id WHERE line.id = 9"
    ).rows
    out["group"] = run(
        db, txn, "SELECT active, COUNT(*) AS n, MAX(price) AS top FROM item "
        "GROUP BY active ORDER BY n",
    ).rows
    out["writeset"] = [
        [op.table, op.pk, op.op, op.values] for op in db.get_writeset(txn)
    ]
    out["readset"] = sorted(map(list, txn.readset))
    out["dependent_reads"] = sorted(map(list, txn.dependent_reads))
    return wire(out)


# -- the boundary: exports and images over a mixed history ---------------------


def history_cluster():
    """A 3-replica cluster through inserts, updates and deletes, with R0
    rejoining by a full state transfer and a reader joining by snapshot."""
    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=55))
    cluster.load_schema(list(DDL))
    cluster.bulk_load("item", ITEMS)
    cluster.bulk_load("line", LINES)
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)
    keys = itertools.count(100)

    def client(start, n):
        yield sim.sleep(start)
        conn = yield from driver.connect(cluster.new_client_host(), address="R1")
        for i in range(n):
            key = next(keys)
            yield from conn.execute(
                "INSERT INTO item (id, name, price, active) VALUES (?, ?, ?, ?)",
                (key, f"n{key}", key / 4, key % 3 == 0),
            )
            yield from conn.execute(
                "UPDATE item SET price = price + 1, active = ? WHERE id = ?",
                (i % 2 == 0, 1 + i % 5),
            )
            if i % 3 == 1:
                yield from conn.execute("DELETE FROM item WHERE id = ?", (key - 1,))
            if i == 6:
                yield from conn.execute("DELETE FROM line WHERE item = ?", (1,))
            yield from conn.commit()
            yield sim.sleep(0.05)
        conn.close()

    sim.call_at(0.2, lambda: cluster.crash(0))
    sim.spawn(client(0.3, 12), name="history")
    sim.call_at(1.5, lambda: cluster.recover_replica(0, mode="full"))
    sim.run()
    sim.run(until=sim.now + 2.0)
    cluster.add_reader()
    sim.spawn(client(0.1, 6), name="after-join")
    sim.run()
    sim.run(until=sim.now + 2.0)
    assert cluster.replicas[0].recovery.stats["mode"] == "full"
    return cluster


def boundary():
    cluster = history_cluster()
    donor = cluster.replicas[1]
    image = wire(donor.recovery.image().to_json())
    # the certifier's maps are in the order a writeset's key set
    # iterates, which moves with the string hash seed
    image["certifier"] = [
        sorted(field) if isinstance(field, list) else field
        for field in image["certifier"]
    ]
    return cluster, wire({"export": donor.db.export_committed(), "image": image})


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_own_writes_read_as_pinned(pinned):
    assert_pinned(own_writes(), pinned["own_writes"])


def test_full_transfer_and_reader_join_store_tuples_and_pinned_images(pinned):
    cluster, observed = boundary()
    assert_pinned(observed, pinned["boundary"])
    nodes = [*cluster.replicas, *cluster.readers]
    assert len(cluster.readers) == 1
    reference = cluster.replicas[1].db.export_committed()
    for node in nodes:
        assert_compact(node.db)
        assert node.db.export_committed() == reference, node.name
    assert cluster.one_copy_report().ok


# -- the memory guard ----------------------------------------------------------


def test_a_stored_row_stays_compact():
    """tracemalloc bytes per row of a 20 000-row two-column bulk load,
    version and table entry included: 136 B as a tuple on CPython
    3.10, 3.11 and 3.12; as a dict, 318 B on 3.10 and 269 B on 3.11
    and 3.12."""
    n = 20_000
    db = Database(Simulator(), "M")
    db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    rows = [{"k": i, "v": i} for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db.bulk_load("kv", rows)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_row < 200, per_row


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"own_writes": own_writes(), "boundary": boundary()[1]}, indent=1
    ) + "\n")
    print(f"recorded {FIXTURE}")
