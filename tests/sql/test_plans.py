"""Statement plans: compiled expressions, plan storage, plan-time errors.

The compiled closures are checked against a reference interpreter pinned
below (the per-node ``isinstance`` ladder the compiler replaced), so the
NULL / type-error / division semantics cannot drift.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLError
from repro.sim import Simulator
from repro.sql import ast, parser
from repro.sql.expressions import compile_expr
from repro.sql.plan import plan_for
from repro.storage import Database
from repro.testing import execute_sync, query, run_txn

# ---------------------------------------------------------------------------
# (a) compiled closures vs the pinned reference interpreter
# ---------------------------------------------------------------------------


def reference_evaluate(expr, lookup, params):
    """The tree-walking evaluator statement plans replaced, kept verbatim."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Param):
        if expr.index >= len(params):
            raise SQLError(
                f"statement has parameter ?{expr.index} but only "
                f"{len(params)} values were supplied"
            )
        return params[expr.index]
    if isinstance(expr, ast.Column):
        return lookup(expr)
    if isinstance(expr, ast.BinOp):
        return _reference_binop(expr, lookup, params)
    if isinstance(expr, ast.UnaryOp):
        value = reference_evaluate(expr.operand, lookup, params)
        if expr.op == "NOT":
            return not _truthy(value)
        if expr.op == "NEG":
            return None if value is None else -value
        raise SQLError(f"unknown unary op {expr.op!r}")
    if isinstance(expr, ast.InList):
        value = reference_evaluate(expr.expr, lookup, params)
        if value is None:
            return False
        members = [reference_evaluate(item, lookup, params) for item in expr.items]
        result = value in members
        return not result if expr.negated else result
    if isinstance(expr, ast.Between):
        value = reference_evaluate(expr.expr, lookup, params)
        low = reference_evaluate(expr.low, lookup, params)
        high = reference_evaluate(expr.high, lookup, params)
        if value is None or low is None or high is None:
            return False
        result = low <= value <= high
        return not result if expr.negated else result
    if isinstance(expr, ast.IsNull):
        value = reference_evaluate(expr.expr, lookup, params)
        result = value is None
        return not result if expr.negated else result
    if isinstance(expr, ast.Like):
        value = reference_evaluate(expr.expr, lookup, params)
        pattern = reference_evaluate(expr.pattern, lookup, params)
        if value is None or pattern is None:
            return False
        result = bool(_like_regex(pattern).match(str(value)))
        return not result if expr.negated else result
    raise SQLError(f"cannot evaluate expression {expr!r}")


def _reference_binop(expr, lookup, params):
    op = expr.op
    if op == "AND":
        return _truthy(reference_evaluate(expr.left, lookup, params)) and _truthy(
            reference_evaluate(expr.right, lookup, params)
        )
    if op == "OR":
        return _truthy(reference_evaluate(expr.left, lookup, params)) or _truthy(
            reference_evaluate(expr.right, lookup, params)
        )
    left = reference_evaluate(expr.left, lookup, params)
    right = reference_evaluate(expr.right, lookup, params)
    if op in ("+", "-", "*", "/"):
        if left is None or right is None:
            return None
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise SQLError("division by zero")
        return left / right
    if left is None or right is None:
        return False
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError as err:
        raise SQLError(f"type error comparing {left!r} {op} {right!r}") from err
    raise SQLError(f"unknown operator {op!r}")


def _truthy(value):
    return bool(value)


def _like_regex(pattern):
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(f"^{regex}$", re.DOTALL)


OPS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "AND", "OR"]
VALUES = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.floats(-100, 100, allow_nan=False),
    st.text(alphabet="ab%_.", max_size=3),
    st.booleans(),
)
ROW = {"a": 1, "b": None, "c": "ab", "d": 2.5, "e": True, "f": 0}
COLUMN_NAMES = sorted(ROW) + ["missing"]

leaves = st.one_of(
    VALUES.map(ast.Literal),
    st.integers(0, 3).map(ast.Param),
    st.sampled_from(COLUMN_NAMES).map(ast.Column),
)


def _extend(children):
    return st.one_of(
        st.builds(ast.BinOp, st.sampled_from(OPS), children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "NEG"]), children),
        st.builds(
            ast.InList,
            children,
            st.lists(children, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.Like, children, children, st.booleans()),
    )


expressions = st.recursive(leaves, _extend, max_leaves=10)
#: evaluation order is observable (errors, columns read), so compound
#: nodes and connectives also get drawn at the root over whole subtrees
predicates = st.one_of(
    expressions,
    _extend(expressions),
    st.builds(ast.BinOp, st.sampled_from(["AND", "OR"]), expressions, expressions),
)


def _outcome(run, expr, params):
    """(result or exception, columns looked up in order)."""
    seen = []

    def lookup(col):
        seen.append(col.name)
        if col.name not in ROW:
            raise SQLError(f"unknown column {col.name!r}")
        return ROW[col.name]

    try:
        value = run(expr, lookup, params)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(err), str(err)), seen
    return ("value", repr(value)), seen


@settings(max_examples=800, deadline=None)
@given(expr=predicates, params=st.lists(VALUES, max_size=4).map(tuple))
def test_compiled_expressions_match_reference(expr, params):
    expected = _outcome(reference_evaluate, expr, params)
    got = _outcome(lambda e, lookup, p: compile_expr(e)(lookup, p), expr, params)
    assert got == expected


def test_uncompilable_nodes_raise_on_evaluation_only():
    fn = compile_expr(ast.Aggregate("SUM", ast.Column("a")))
    with pytest.raises(SQLError, match="cannot evaluate"):
        fn(lambda col: 1, ())


# ---------------------------------------------------------------------------
# Engine fixtures
# ---------------------------------------------------------------------------


def make_db(rows=((1, 10, 1), (2, 20, 1)), name="db"):
    sim = Simulator(seed=1)
    db = Database(sim, name=name)
    db.run_ddl("CREATE TABLE t (k INT PRIMARY KEY, v INT, g INT)")
    db.bulk_load("t", [{"k": k, "v": v, "g": g} for k, v, g in rows])
    return sim, db


def plans_stored():
    return sum(len(plans) for _statement, plans in parser._PLAN_SLOTS.values())


def stored_plan(sql, db, table="t"):
    statement = parser.parse_cached(sql)
    _statement, plans = parser._PLAN_SLOTS[id(statement)]
    hit = plans.get(id(db.catalog.table(table).schema))
    return None if hit is None else hit[1]


# ---------------------------------------------------------------------------
# (b) DDL after planning: the access path is chosen at run time
# ---------------------------------------------------------------------------


def test_plan_built_before_create_index_uses_the_index_after():
    sim, db = make_db()
    sql = "SELECT k FROM t WHERE g = ?"
    assert query(sim, db, sql, (1,)) == [{"k": 1}, {"k": 2}]
    assert db.explain(sql, (1,)) == ("scan",)
    plan = stored_plan(sql, db)
    assert plan is not None

    db.run_ddl("CREATE INDEX i_g ON t (g)")
    assert db.explain(sql, (1,)) == ("index", "g", 1)
    assert stored_plan(sql, db) is plan
    assert query(sim, db, sql, (1,)) == [{"k": 1}, {"k": 2}]


# ---------------------------------------------------------------------------
# (c) storage is bounded by the parse cache
# ---------------------------------------------------------------------------


def test_plan_storage_never_outnumbers_the_parse_cache(monkeypatch):
    monkeypatch.setattr(parser, "_CACHE", {})
    monkeypatch.setattr(parser, "_PLAN_SLOTS", {})
    sim, db = make_db()

    def body():
        txn = db.begin()
        for i in range(2 * parser._CACHE_LIMIT):
            yield from db.execute(txn, f"SELECT v FROM t WHERE k = {i}")
        yield from db.commit(txn)

    sim.run_process(body())
    assert 0 < plans_stored() <= len(parser._CACHE) <= parser._CACHE_LIMIT
    cached = {id(statement) for statement in parser._CACHE.values()}
    assert set(parser._PLAN_SLOTS) == cached


# ---------------------------------------------------------------------------
# (d) subquery-bound statements are never stored
# ---------------------------------------------------------------------------


def test_subquery_statement_adds_no_plan():
    sim, db = make_db()
    sql = "SELECT k FROM t WHERE v = (SELECT MAX(v) FROM t)"
    query(sim, db, "SELECT k FROM t WHERE k = 1")  # warm an unrelated plan
    before = plans_stored()

    def body():
        txn = db.begin()
        for _ in range(100):
            result = yield from db.execute(txn, sql)
            assert result.rows == [{"k": 2}]
        yield from db.commit(txn)

    sim.run_process(body())
    assert plans_stored() == before
    assert stored_plan(sql, db) is None


# ---------------------------------------------------------------------------
# (e) the two bugfixes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql, params",
    [
        ("SELECT v FROM t WHERE k = ?", ()),
        ("SELECT v FROM t WHERE k IN (?, 2)", ()),
        ("UPDATE t SET v = ? WHERE k = ?", (5,)),
        ("DELETE FROM t WHERE k = ?", ()),
        ("SELECT v FROM t WHERE v = ?", ()),
    ],
)
def test_missing_parameter_raises_on_every_access_path(sql, params):
    sim, db = make_db()
    txn = db.begin()
    with pytest.raises(SQLError, match=r"has parameter \?\d+ but only"):
        execute_sync(sim, db, txn, sql, params)
    assert not txn.active
    assert query(sim, db, "SELECT k, v FROM t ORDER BY k") == [
        {"k": 1, "v": 10},
        {"k": 2, "v": 20},
    ]


@pytest.mark.parametrize("target", [1, 99])
def test_primary_key_assignment_refused_before_any_row_is_read(target):
    sim, db = make_db()
    txn = db.begin()
    with pytest.raises(SQLError, match="primary key"):
        execute_sync(sim, db, txn, f"UPDATE t SET k = 3 WHERE k = {target}")
    assert txn.rows_examined == 0 and not txn.readset
    assert not txn.active


# ---------------------------------------------------------------------------
# (f) replicas never share a plan bound to the other's table
# ---------------------------------------------------------------------------


def test_equal_schemas_on_two_replicas_plan_separately():
    sim_a, a = make_db(rows=((1, 10, 1),), name="a")
    sim_b, b = make_db(rows=((1, 99, 1), (2, 98, 1)), name="b")
    schema_a = a.catalog.table("t").schema
    schema_b = b.catalog.table("t").schema
    assert schema_a == schema_b and schema_a is not schema_b
    a.run_ddl("CREATE INDEX i_g ON t (g)")

    sql = "SELECT v FROM t WHERE g = ? ORDER BY v"
    for _ in range(2):
        assert query(sim_a, a, sql, (1,)) == [{"v": 10}]
        assert query(sim_b, b, sql, (1,)) == [{"v": 98}, {"v": 99}]
    assert a.explain(sql, (1,)) == ("index", "g", 1)
    assert b.explain(sql, (1,)) == ("scan",)
    statement = parser.parse_cached(sql)
    assert plan_for(statement, schema_a) is not plan_for(statement, schema_b)


def test_shared_schema_objects_still_read_their_own_table():
    sim, a = make_db(rows=((1, 10, 1),), name="a")
    b = Database(sim, name="b")
    b.catalog = a.catalog.clone_empty()
    b.bulk_load("t", [{"k": 1, "v": 77, "g": 1}])
    assert b.catalog.table("t").schema is a.catalog.table("t").schema
    sql = "SELECT v FROM t WHERE k = ?"
    assert query(sim, a, sql, (1,)) == [{"v": 10}]
    assert query(sim, b, sql, (1,)) == [{"v": 77}]
    run_txn(sim, b, [("UPDATE t SET v = ? WHERE k = ?", (5, 1))])
    assert query(sim, a, sql, (1,)) == [{"v": 10}]
    assert query(sim, b, sql, (1,)) == [{"v": 5}]
