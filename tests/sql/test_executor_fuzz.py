"""Differential fuzzing: the SQL executor vs a naive Python oracle.

Random single-table queries (predicates, projection, order, limit,
aggregates, GROUP BY with HAVING) run both through the engine and
through a direct Python evaluation over the same rows; results must
match exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage import Database
from repro.testing import query, run_txn

N_ROWS = 40


def build_db(seed, null_vals=False):
    sim = Simulator(seed=seed)
    db = Database(sim, name="fuzz")
    db.run_ddl(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, name TEXT)"
    )
    db.run_ddl("CREATE INDEX i_grp ON t (grp)")
    rng = random.Random(seed)
    rows = [
        {
            "id": i,
            "grp": rng.randint(0, 5),
            "val": None if null_vals and rng.random() < 0.2 else rng.randint(-50, 50),
            "name": rng.choice(["ant", "bee", "cat", "dog", None]),
        }
        for i in range(1, N_ROWS + 1)
    ]
    db.bulk_load("t", rows)
    return sim, db, rows


# one predicate = (sql fragment, python function)
PREDICATES = [
    ("val > {a}", lambda r, a, b: r["val"] is not None and r["val"] > a),
    ("val <= {a}", lambda r, a, b: r["val"] is not None and r["val"] <= a),
    ("grp = {b}", lambda r, a, b: r["grp"] == b),
    ("grp IN ({b}, {b2})", lambda r, a, b: r["grp"] in (b, (b + 1) % 6)),
    ("val BETWEEN {a} AND {a2}", lambda r, a, b: r["val"] is not None and a <= r["val"] <= a + 20),
    ("name = 'cat'", lambda r, a, b: r["name"] == "cat"),
    ("name IS NULL", lambda r, a, b: r["name"] is None),
    ("name LIKE 'b%'", lambda r, a, b: r["name"] is not None and r["name"].startswith("b")),
    ("id = {id}", lambda r, a, b: True),  # handled specially below
]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 50),
    pred_i=st.integers(0, len(PREDICATES) - 2),  # exclude the id= special
    pred_j=st.integers(0, len(PREDICATES) - 2),
    connective=st.sampled_from(["AND", "OR"]),
    a=st.integers(-40, 40),
    b=st.integers(0, 5),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(1, 10)),
)
def test_select_matches_oracle(seed, pred_i, pred_j, connective, a, b, descending, limit):
    sim, db, rows = build_db(seed)
    frag_i, fn_i = PREDICATES[pred_i]
    frag_j, fn_j = PREDICATES[pred_j]
    subst = {"a": a, "a2": a + 20, "b": b, "b2": (b + 1) % 6, "id": 1}
    where = f"({frag_i.format(**subst)}) {connective} ({frag_j.format(**subst)})"
    order = "ORDER BY id" + (" DESC" if descending else "")
    sql = f"SELECT id, val FROM t WHERE {where} {order}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    got = query(sim, db, sql)

    if connective == "AND":
        keep = lambda r: fn_i(r, a, b) and fn_j(r, a, b)  # noqa: E731
    else:
        keep = lambda r: fn_i(r, a, b) or fn_j(r, a, b)  # noqa: E731
    expected = [
        {"id": r["id"], "val": r["val"]} for r in rows if keep(r)
    ]
    expected.sort(key=lambda r: r["id"], reverse=descending)
    if limit is not None:
        expected = expected[:limit]
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 50),
    b=st.integers(0, 5),
)
def test_aggregates_match_oracle(seed, b):
    sim, db, rows = build_db(seed)
    got = query(
        sim, db,
        "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, MAX(val) AS hi "
        "FROM t WHERE grp = ?",
        (b,),
    )[0]
    member_vals = [r["val"] for r in rows if r["grp"] == b]
    assert got["n"] == len(member_vals)
    assert got["s"] == (sum(member_vals) if member_vals else None)
    assert got["lo"] == (min(member_vals) if member_vals else None)
    assert got["hi"] == (max(member_vals) if member_vals else None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 50))
def test_group_by_matches_oracle(seed):
    sim, db, rows = build_db(seed)
    got = query(
        sim, db,
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t GROUP BY grp ORDER BY grp",
    )
    expected = []
    for grp in sorted({r["grp"] for r in rows}):
        members = [r for r in rows if r["grp"] == grp]
        expected.append(
            {"grp": grp, "n": len(members), "s": sum(r["val"] for r in members)}
        )
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 50),
    key=st.integers(-5, 50),
    value=st.integers(-100, 100),
)
def test_update_then_read_matches_oracle(seed, key, value):
    sim, db, rows = build_db(seed)
    run_txn(sim, db, [("UPDATE t SET val = ? WHERE id = ?", (value, key))])
    got = query(sim, db, "SELECT id, val FROM t ORDER BY id")
    expected = [
        {"id": r["id"], "val": value if r["id"] == key else r["val"]}
        for r in rows
    ]
    assert got == expected


#: HAVING clause -> the same test over one oracle output row
HAVING = [
    (None, lambda row: True),
    ("COUNT(*) >= 3", lambda row: row["n"] >= 3),
    ("SUM(val) > 10", lambda row: row["s"] is not None and row["s"] > 10),
    ("MAX(val) - MIN(val) >= 20", lambda row: row["hi"] is not None and row["hi"] - row["lo"] >= 20),
    ("AVG(val) < 0 OR COUNT(val) = 0", lambda row: row["cv"] == 0 or row["a"] < 0),
    ("NOT (cv = n)", lambda row: row["cv"] != row["n"]),
]
AGGREGATE_OUTPUTS = ("n", "cv", "s", "lo", "hi", "a")


def _sort_key(value):
    # NULLs sort last ascending, first descending
    return (value is None, type(value).__name__, value if value is not None else 0)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 50),
    column=st.sampled_from(["grp", "name"]),
    cut=st.integers(0, N_ROWS),
    having=st.integers(0, len(HAVING) - 1),
    order=st.sampled_from(AGGREGATE_OUTPUTS),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(1, 5)),
)
def test_group_by_having_order_limit_matches_oracle(
    seed, column, cut, having, order, descending, limit
):
    sim, db, rows = build_db(seed, null_vals=True)
    having_sql, keep = HAVING[having]
    sql = (
        f"SELECT {column}, COUNT(*) AS n, COUNT(val) AS cv, SUM(val) AS s, "
        f"MIN(val) AS lo, MAX(val) AS hi, AVG(val) AS a FROM t WHERE id > {cut} "
        f"GROUP BY {column}"
    )
    if having_sql:
        sql += f" HAVING {having_sql}"
    sql += f" ORDER BY {order}" + (" DESC" if descending else "") + f", {column}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    got = query(sim, db, sql)

    groups: dict = {}
    for r in rows:
        if r["id"] > cut:
            groups.setdefault(r[column], []).append(r)
    expected = []
    for key, members in groups.items():
        vals = [m["val"] for m in members if m["val"] is not None]
        row = {
            column: key,
            "n": len(members),
            "cv": len(vals),
            "s": sum(vals) if vals else None,
            "lo": min(vals) if vals else None,
            "hi": max(vals) if vals else None,
            "a": sum(vals) / len(vals) if vals else None,
        }
        if keep(row):
            expected.append(row)
    expected.sort(key=lambda r: _sort_key(r[column]))
    expected.sort(key=lambda r: _sort_key(r[order]), reverse=descending)
    if limit is not None:
        expected = expected[:limit]
    assert got == expected
