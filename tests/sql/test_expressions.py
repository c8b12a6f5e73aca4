"""Expression evaluation and planner-helper tests."""

import pytest

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.expressions import compile_expr, conjuncts, constant_value
from repro.sql.parser import parse
from repro.sql.plan import build_plan
from repro.storage.catalog import ColumnDef, TableSchema

SCHEMA = TableSchema(
    "t",
    (
        ColumnDef("id", "INT", primary_key=True),
        ColumnDef("v", "TEXT"),
        ColumnDef("other_col", "INT"),
    ),
)


def where_of(sql_where):
    return parse(f"SELECT * FROM t WHERE {sql_where}").where


def ev(sql_where, row=None, params=()):
    row = row or {}

    def lookup(col):
        if col.name not in row:
            raise SQLError(f"unknown {col.name}")
        return row[col.name]

    return compile_expr(where_of(sql_where))(lookup, params)


def test_arithmetic():
    assert ev("a = 2 + 3 * 4", {"a": 14}) is True
    assert ev("a = (2 + 3) * 4", {"a": 20}) is True
    assert ev("a = 10 / 4", {"a": 2.5}) is True
    assert ev("a = -5", {"a": -5}) is True


def test_division_by_zero_raises():
    with pytest.raises(SQLError, match="division"):
        ev("a = 1 / 0", {"a": 1})


def test_comparisons():
    row = {"a": 5}
    assert ev("a < 6", row) and ev("a <= 5", row) and ev("a > 4", row)
    assert ev("a >= 5", row) and ev("a = 5", row) and ev("a <> 6", row)
    assert ev("a != 6", row)
    assert not ev("a < 5", row)


def test_null_semantics():
    row = {"a": None}
    assert ev("a = 1", row) is False
    assert ev("a <> 1", row) is False
    assert ev("a IS NULL", row) is True
    assert ev("a IS NOT NULL", row) is False
    # arithmetic with NULL yields NULL, comparisons with it are false
    assert ev("a + 1 = 2", row) is False


def test_boolean_connectives():
    row = {"a": 1, "b": 2}
    assert ev("a = 1 AND b = 2", row)
    assert ev("a = 9 OR b = 2", row)
    assert ev("NOT a = 9", row)
    assert not ev("NOT (a = 1 OR b = 9)", row)


def test_in_and_between():
    row = {"a": 3}
    assert ev("a IN (1, 2, 3)", row)
    assert ev("a NOT IN (4, 5)", row)
    assert ev("a BETWEEN 1 AND 3", row)
    assert ev("a NOT BETWEEN 4 AND 9", row)
    assert not ev("a BETWEEN 4 AND 9", row)


def test_like_patterns():
    assert ev("a LIKE 'he%'", {"a": "hello"})
    assert ev("a LIKE 'h_llo'", {"a": "hello"})
    assert ev("a NOT LIKE 'x%'", {"a": "hello"})
    assert not ev("a LIKE 'h_llo'", {"a": "heello"})
    # regex metacharacters in the pattern are literals
    assert ev("a LIKE 'a.b%'", {"a": "a.bc"})
    assert not ev("a LIKE 'a.b%'", {"a": "aXbc"})


def test_params_resolved_by_position():
    assert ev("a = ? AND b = ?", {"a": 1, "b": 2}, params=(1, 2))
    with pytest.raises(SQLError, match="parameter"):
        ev("a = ?", {"a": 1}, params=())


def test_type_error_comparison_raises():
    with pytest.raises(SQLError, match="type error"):
        ev("a < 'x'", {"a": 1})


def test_conjuncts_flattens_and_tree():
    where = where_of("a = 1 AND (b = 2 AND c = 3) AND d > 4")
    assert len(list(conjuncts(where))) == 4
    assert list(conjuncts(None)) == []
    # OR is a single conjunct
    assert len(list(conjuncts(where_of("a = 1 OR b = 2")))) == 1


def test_constant_value():
    assert constant_value(ast.Literal(5), ()) == (True, 5)
    assert constant_value(ast.Param(0), (9,)) == (True, 9)
    assert constant_value(ast.UnaryOp("NEG", ast.Literal(5)), ()) == (True, -5)
    assert constant_value(ast.Column("a"), ())[0] is False


def equality_lookups(sql_where, params=()):
    """The plan's constant equality constraints on table ``t``."""
    statement = parse(f"SELECT * FROM t WHERE {sql_where}")
    return build_plan(statement, SCHEMA).lookups(params)


def test_equality_lookups_simple():
    found = equality_lookups("id = 7 AND v = 'x'")
    assert found["id"] == [7]
    assert found["v"] == ["x"]


def test_equality_lookups_params_and_in():
    found = equality_lookups("id IN (1, ?, 3)", (2,))
    assert found["id"] == [1, 2, 3]


def test_equality_lookups_ignores_or_branches():
    assert equality_lookups("id = 1 OR id = 2") == {}


def test_equality_lookups_ignores_other_tables():
    assert equality_lookups("u.id = 1 AND t.id = 2") == {"id": [2]}


def test_equality_lookups_non_constant_side_ignored():
    assert equality_lookups("id = other_col") == {}
