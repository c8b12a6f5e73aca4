"""GROUP BY / HAVING executor tests."""

import pytest

from repro.errors import SQLError
from repro.sim import Simulator
from repro.storage import Database
from repro.testing import query, run_txn


@pytest.fixture
def env():
    sim = Simulator(seed=1)
    db = Database(sim, name="db")
    run_txn(
        sim, db,
        [
            (
                "CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, "
                "product TEXT, amount INT)",
            ),
            (
                "INSERT INTO sales (id, region, product, amount) VALUES "
                "(1, 'east', 'pen', 10), (2, 'east', 'book', 30), "
                "(3, 'west', 'pen', 20), (4, 'west', 'book', 40), "
                "(5, 'west', 'pen', 5), (6, 'north', 'ink', 7)",
            ),
        ],
    )
    return sim, db


def test_group_by_with_aggregates(env):
    sim, db = env
    rows = query(
        sim, db,
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales "
        "GROUP BY region ORDER BY region",
    )
    assert rows == [
        {"region": "east", "n": 2, "total": 40},
        {"region": "north", "n": 1, "total": 7},
        {"region": "west", "n": 3, "total": 65},
    ]


def test_group_by_multiple_columns(env):
    sim, db = env
    rows = query(
        sim, db,
        "SELECT region, product, SUM(amount) AS s FROM sales "
        "GROUP BY region, product ORDER BY region, product",
    )
    assert rows[0] == {"region": "east", "product": "book", "s": 30}
    assert len(rows) == 5


def test_group_by_with_where_filter(env):
    sim, db = env
    rows = query(
        sim, db,
        "SELECT region, COUNT(*) AS n FROM sales WHERE amount > 9 "
        "GROUP BY region ORDER BY region",
    )
    assert rows == [{"region": "east", "n": 2}, {"region": "west", "n": 2}]


def test_having_on_aggregate(env):
    sim, db = env
    rows = query(
        sim, db,
        "SELECT region, SUM(amount) AS total FROM sales GROUP BY region "
        "HAVING SUM(amount) > 10 ORDER BY total DESC",
    )
    assert rows == [
        {"region": "west", "total": 65},
        {"region": "east", "total": 40},
    ]


def test_having_with_count_comparison(env):
    sim, db = env
    rows = query(
        sim, db,
        "SELECT region FROM sales GROUP BY region HAVING COUNT(*) >= 2 "
        "ORDER BY region",
    )
    assert rows == [{"region": "east"}, {"region": "west"}]


def test_having_reads_a_grouped_column(env):
    sim, db = env
    selected = query(
        sim, db,
        "SELECT region, SUM(amount) AS total FROM sales GROUP BY region "
        "HAVING region = 'west'",
    )
    assert selected == [{"region": "west", "total": 65}]
    # a grouped column the select list leaves out is read from the group
    unselected = query(
        sim, db,
        "SELECT SUM(amount) AS total FROM sales GROUP BY region "
        "HAVING region = 'east'",
    )
    assert unselected == [{"total": 40}]


def test_group_by_without_aggregates_is_distinct(env):
    sim, db = env
    rows = query(sim, db, "SELECT product FROM sales GROUP BY product ORDER BY product")
    assert rows == [{"product": "book"}, {"product": "ink"}, {"product": "pen"}]


def test_group_by_limit(env):
    sim, db = env
    rows = query(
        sim, db,
        "SELECT region, SUM(amount) AS s FROM sales GROUP BY region "
        "ORDER BY s DESC LIMIT 1",
    )
    assert rows == [{"region": "west", "s": 65}]


def test_best_sellers_style_query(env):
    """The TPC-W best-sellers shape: join + group + order + limit."""
    sim, db = env
    run_txn(
        sim, db,
        [
            ("CREATE TABLE products (name TEXT PRIMARY KEY, price INT)",),
            (
                "INSERT INTO products (name, price) VALUES "
                "('pen', 2), ('book', 15), ('ink', 5)",
            ),
        ],
    )
    rows = query(
        sim, db,
        "SELECT s.product, SUM(s.amount) AS sold FROM sales s "
        "JOIN products p ON s.product = p.name "
        "WHERE p.price < 10 GROUP BY s.product ORDER BY sold DESC",
    )
    assert rows == [{"product": "pen", "sold": 35}, {"product": "ink", "sold": 7}]


def test_ungrouped_column_rejected(env):
    sim, db = env
    with pytest.raises(SQLError, match="GROUP BY"):
        query(sim, db, "SELECT region, amount FROM sales GROUP BY region")


def test_order_by_non_output_column_rejected(env):
    sim, db = env
    with pytest.raises(SQLError, match="ORDER BY"):
        query(
            sim, db,
            "SELECT region, COUNT(*) AS n FROM sales GROUP BY region "
            "ORDER BY amount",
        )


def test_plain_aggregate_still_works(env):
    sim, db = env
    rows = query(sim, db, "SELECT COUNT(*) AS n, MAX(amount) AS m FROM sales")
    assert rows == [{"n": 6, "m": 40}]


def test_group_by_empty_table(env):
    sim, db = env
    run_txn(sim, db, [("DELETE FROM sales",)])
    rows = query(
        sim, db, "SELECT region, COUNT(*) AS n FROM sales GROUP BY region"
    )
    assert rows == []
