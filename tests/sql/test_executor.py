"""End-to-end SQL executor tests against the engine."""

import pytest

from repro.errors import SerializationFailure, SQLError
from repro.sim import Simulator
from repro.storage import Database
from repro.testing import commit_sync, execute_sync, query, run_txn


@pytest.fixture
def env():
    sim = Simulator(seed=1)
    db = Database(sim, name="db")
    run_txn(
        sim,
        db,
        [
            (
                "CREATE TABLE item (id INT PRIMARY KEY, name TEXT NOT NULL, "
                "price FLOAT, stock INT)",
            ),
            ("CREATE INDEX i_item_name ON item (name)",),
            (
                "CREATE TABLE orders (oid INT PRIMARY KEY, item_ref INT, qty INT)",
            ),
            ("CREATE INDEX i_orders_item ON orders (item_ref)",),
            (
                "INSERT INTO item (id, name, price, stock) VALUES "
                "(1, 'book', 12.5, 10), (2, 'pen', 1.5, 100), "
                "(3, 'ink', 5.0, 50), (4, 'book', 20.0, 2)",
            ),
            (
                "INSERT INTO orders (oid, item_ref, qty) VALUES "
                "(10, 1, 2), (11, 2, 5), (12, 1, 1)",
            ),
        ],
    )
    return sim, db


def test_select_star_projects_all_columns(env):
    sim, db = env
    rows = query(sim, db, "SELECT * FROM item WHERE id = 2")
    assert rows == [{"id": 2, "name": "pen", "price": 1.5, "stock": 100}]


def test_point_lookup_uses_pk_path(env):
    sim, db = env
    txn = db.begin()
    result = execute_sync(sim, db, txn, "SELECT name FROM item WHERE id = 3")
    assert result.rows == [{"name": "ink"}]
    assert result.rows_examined == 1  # pk access path, not a scan
    commit_sync(sim, db, txn)


def test_index_lookup_on_equality(env):
    sim, db = env
    txn = db.begin()
    result = execute_sync(
        sim, db, txn, "SELECT id FROM item WHERE name = 'book' ORDER BY id"
    )
    assert [r["id"] for r in result.rows] == [1, 4]
    assert result.rows_examined == 2  # only the two indexed candidates
    commit_sync(sim, db, txn)


def test_full_scan_when_no_index(env):
    sim, db = env
    txn = db.begin()
    result = execute_sync(sim, db, txn, "SELECT id FROM item WHERE price > 4.0")
    assert result.rows_examined == 4
    assert sorted(r["id"] for r in result.rows) == [1, 3, 4]
    commit_sync(sim, db, txn)


def test_in_list_pk_candidates(env):
    sim, db = env
    txn = db.begin()
    result = execute_sync(
        sim, db, txn, "SELECT id FROM item WHERE id IN (1, 3, 99) ORDER BY id"
    )
    assert [r["id"] for r in result.rows] == [1, 3]
    assert result.rows_examined == 3
    commit_sync(sim, db, txn)


def test_order_by_multiple_keys_and_desc(env):
    sim, db = env
    rows = query(sim, db, "SELECT id, name FROM item ORDER BY name, id DESC")
    assert [(r["name"], r["id"]) for r in rows] == [
        ("book", 4), ("book", 1), ("ink", 3), ("pen", 2),
    ]


def test_limit_with_param(env):
    sim, db = env
    rows = query(sim, db, "SELECT id FROM item ORDER BY id LIMIT ?", (2,))
    assert [r["id"] for r in rows] == [1, 2]


def test_projection_expressions_and_aliases(env):
    sim, db = env
    rows = query(
        sim, db, "SELECT name, price * stock AS value FROM item WHERE id = 2"
    )
    assert rows == [{"name": "pen", "value": 150.0}]


def test_aggregates(env):
    sim, db = env
    rows = query(
        sim,
        db,
        "SELECT COUNT(*) AS n, SUM(stock) AS total, AVG(price) AS avgp, "
        "MIN(price) AS lo, MAX(price) AS hi FROM item",
    )
    assert rows == [
        {"n": 4, "total": 162, "avgp": pytest.approx(9.75), "lo": 1.5, "hi": 20.0}
    ]


def test_aggregate_on_empty_match(env):
    sim, db = env
    rows = query(
        sim, db, "SELECT COUNT(*) AS n, SUM(stock) AS s FROM item WHERE id = 999"
    )
    assert rows == [{"n": 0, "s": None}]


def test_join_via_pk(env):
    sim, db = env
    rows = query(
        sim,
        db,
        "SELECT o.oid, i.name FROM orders o JOIN item i ON o.item_ref = i.id "
        "ORDER BY o.oid",
    )
    assert rows == [
        {"oid": 10, "name": "book"},
        {"oid": 11, "name": "pen"},
        {"oid": 12, "name": "book"},
    ]


def test_join_via_secondary_index(env):
    sim, db = env
    rows = query(
        sim,
        db,
        "SELECT i.id, o.qty FROM item i JOIN orders o ON i.id = o.item_ref "
        "WHERE i.name = 'book' ORDER BY o.oid",
    )
    assert rows == [{"id": 1, "qty": 2}, {"id": 1, "qty": 1}]


def test_join_where_filters_combined_row(env):
    sim, db = env
    rows = query(
        sim,
        db,
        "SELECT o.oid FROM orders o JOIN item i ON o.item_ref = i.id "
        "WHERE i.price > 10 AND o.qty > 1",
    )
    assert rows == [{"oid": 10}]


def test_ambiguous_unqualified_column_in_join_rejected(env):
    sim, db = env
    run_txn(sim, db, [("CREATE TABLE other (id INT PRIMARY KEY, qty INT)",),
                      ("INSERT INTO other (id, qty) VALUES (10, 1)",)])
    with pytest.raises(SQLError, match="ambiguous"):
        query(sim, db, "SELECT qty FROM orders o JOIN other x ON o.oid = x.id")


def test_update_with_expression_and_where(env):
    sim, db = env
    run_txn(sim, db, [("UPDATE item SET stock = stock - 1, price = price * 2 "
                       "WHERE name = 'book'",)])
    rows = query(sim, db, "SELECT id, stock, price FROM item WHERE name = 'book' ORDER BY id")
    assert rows == [
        {"id": 1, "stock": 9, "price": 25.0},
        {"id": 4, "stock": 1, "price": 40.0},
    ]


def test_update_pk_rejected(env):
    sim, db = env
    txn = db.begin()
    with pytest.raises(SQLError, match="primary key"):
        execute_sync(sim, db, txn, "UPDATE item SET id = 99 WHERE id = 1")


def test_update_rowcount(env):
    sim, db = env
    results = run_txn(sim, db, [("UPDATE item SET stock = 0 WHERE price < 6",)])
    assert results[0].rowcount == 2


def test_delete_with_where_and_full_delete(env):
    sim, db = env
    run_txn(sim, db, [("DELETE FROM orders WHERE item_ref = 1",)])
    assert query(sim, db, "SELECT COUNT(*) AS n FROM orders") == [{"n": 1}]
    run_txn(sim, db, [("DELETE FROM orders",)])
    assert query(sim, db, "SELECT COUNT(*) AS n FROM orders") == [{"n": 0}]


def test_insert_with_params(env):
    sim, db = env
    run_txn(
        sim,
        db,
        [("INSERT INTO item (id, name, price, stock) VALUES (?, ?, ?, ?)",
          (9, "glue", 2.5, 7))],
    )
    assert query(sim, db, "SELECT name FROM item WHERE id = 9") == [{"name": "glue"}]


def test_insert_visible_to_index_lookup_in_same_txn(env):
    sim, db = env
    txn = db.begin()
    execute_sync(
        sim, db, txn,
        "INSERT INTO item (id, name, price, stock) VALUES (9, 'book', 1.0, 1)",
    )
    rows = execute_sync(
        sim, db, txn, "SELECT id FROM item WHERE name = 'book' ORDER BY id"
    ).rows
    assert [r["id"] for r in rows] == [1, 4, 9]
    commit_sync(sim, db, txn)


def test_unknown_column_rejected(env):
    sim, db = env
    with pytest.raises(SQLError, match="unknown column"):
        query(sim, db, "SELECT nope FROM item")


def test_scalar_helper(env):
    sim, db = env
    txn = db.begin()
    result = execute_sync(sim, db, txn, "SELECT COUNT(*) AS n FROM item")
    assert result.scalar() == 4
    commit_sync(sim, db, txn)


@pytest.mark.parametrize("where, blind", [
    ("id = 3", True),
    ("id = 3 AND val > 0", False),
])
def test_an_update_whose_where_reads_a_value_is_not_blind(where, blind):
    """A covering UPDATE is blind only if neither its SET nor its WHERE
    read a value of the row.  ``AND val > 0`` makes the write depend on
    row 3, so under ``defer_blind_ww`` it keeps the first-updater check:
    a concurrent committed writer fails it at the statement, and it is
    no deferred write-write conflict."""
    sim = Simulator(seed=1)
    db = Database(sim, name="db")
    db.defer_blind_ww = True
    run_txn(sim, db, [
        ("CREATE TABLE t (id INT PRIMARY KEY, val INT, name TEXT)",),
        ("INSERT INTO t (id, val, name) VALUES (3, 5, 'a')",),
    ])
    txn = db.begin()
    run_txn(sim, db, [("UPDATE t SET val = 6, name = 'b' WHERE id = 3",)])
    deferred = db.deferred_ww
    statement = f"UPDATE t SET val = 7, name = 'c' WHERE {where}"
    if blind:
        execute_sync(sim, db, txn, statement)
        assert ("t", 3) not in txn.dependent_reads
    else:
        with pytest.raises(SerializationFailure, match="concurrent committed"):
            execute_sync(sim, db, txn, statement)
        assert ("t", 3) in txn.dependent_reads
    assert db.deferred_ww - deferred == int(blind)
