"""Every statement the workloads run, and a corpus of edge cases, pinned
to a recorded fixture.

For each statement the fixture holds what a client and the replication
layer can observe: rows in order (with their key order), columns,
``rowcount``, ``rows_examined``, ``rows_written``, the keys the
statement added to the transaction's ``readset`` and
``dependent_reads``, the writes it staged and how many of them were
blind; for a failing statement, the error's type and message and the
rows examined when it was raised.

Two parts:

* **workloads**: every statement template of the micro, TPC-W and
  large-database workloads, on their generated data; TPC-W's
  best-sellers runs again after ``order_line`` has grown;
* **corpus**: projections, predicates, GROUP BY / HAVING, ORDER BY,
  LIMIT, DISTINCT, joins, subqueries and DML over a table with NULLs,
  run three ways: on the current snapshot, on a stale snapshot (taken
  before an update, a delete and an insert committed), and inside a
  transaction holding its own uncommitted insert, updates and delete.
  Failing statements are part of it.

The fixture is the JSON text itself (one record per line).  Re-record
it with ``PYTHONPATH=src python tests/sql/test_golden_statements.py
--record`` only for a change that means to move what statements return.
"""

import itertools
import json
import random
import sys
from pathlib import Path

from repro.sim import Simulator
from repro.storage import Database
from repro.workloads import largedb, micro, tpcw

FIXTURE = Path(__file__).parent / "fixtures" / "golden_statements.json"


def new_db(ddl, tables):
    sim = Simulator(seed=1)
    db = Database(sim, name="golden")
    # blind staged updates skip their lock and count in deferred_ww,
    # which makes the blind-write test observable per statement
    db.defer_blind_ww = True
    for sql in ddl:
        db.run_ddl(sql)
    for table, rows in tables.items():
        db.bulk_load(table, rows)
    return sim, db


def _keys(keys):
    return sorted([table, pk] for table, pk in keys)


def run_statement(sim, db, txn, sql, params=()):
    """One statement's observable outcome (the txn is aborted on error)."""
    readset = set(txn.readset)
    dependent = set(txn.dependent_reads)
    deferred = db.deferred_ww
    record = {"sql": sql, "params": list(params)}
    try:
        result = sim.run_process(db.execute(txn, sql, params))
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        record["error"] = [type(err).__name__, str(err)]
        record["examined"] = txn.rows_examined
        return record
    record.update(
        columns=list(result.columns),
        rows=result.rows,
        rowcount=result.rowcount,
        examined=result.rows_examined,
        written=result.rows_written,
        readset=_keys(txn.readset - readset),
        dependent=_keys(txn.dependent_reads - dependent),
    )
    if result.kind != "select":
        record["writes"] = [
            [table, pk, op.op, op.values] for (table, pk), op in txn.writes.items()
        ]
        record["blind"] = db.deferred_ww - deferred
    return record


def begin(db):
    """A transaction whose gid (which error messages name) does not
    depend on how many transactions the process began before."""
    db.begun = getattr(db, "begun", 0) + 1
    return db.begin(gid=f"g{db.begun}")


def run_transaction(sim, db, statements, out, label):
    txn = begin(db)
    for sql, params in statements:
        record = run_statement(sim, db, txn, sql, params)
        out.append({"case": label, **record})
        if "error" in record:
            return
    sim.run_process(db.commit(txn))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def workload_records():
    out = []
    rng = random.Random(53)

    workload = micro.make_mixed_workload(read_weight=0.5)
    sim, db = new_db(workload.ddl, workload.tables)
    for template in (micro.MICRO_UPDATE, micro.MICRO_READ):
        for _ in range(2):
            statements = template.statements(template.make_params(rng))
            run_transaction(sim, db, statements, out, f"micro/{template.name}")

    workload = largedb.make_workload()
    sim, db = new_db(workload.ddl, workload.tables)
    for template in (largedb.UPDATE_TXN, largedb.QUERY_TXN, largedb.QUERY_TXN):
        statements = template.statements(template.make_params(rng))
        run_transaction(sim, db, statements, out, f"largedb/{template.name}")

    workload = tpcw.make_workload()
    sim, db = new_db(workload.ddl, workload.tables)
    for name, template in tpcw.TEMPLATES.items():
        for _ in range(2):
            statements = template.statements(template.make_params(rng))
            run_transaction(sim, db, statements, out, f"tpcw/{name}")
    buy = tpcw.TEMPLATES["buy_confirm"]
    for _ in range(60):
        statements = buy.statements(buy.make_params(rng))
        run_transaction(sim, db, statements, [], "tpcw/grow")
    for name in ("best_sellers", "order_display"):
        template = tpcw.TEMPLATES[name]
        statements = template.statements(template.make_params(rng))
        run_transaction(sim, db, statements, out, f"tpcw/{name}/grown")
    return out


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_DDL = [
    "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT, name TEXT, w FLOAT, flag BOOL)",
    "CREATE INDEX i_grp ON t (grp)",
    "CREATE TABLE u (uid INT PRIMARY KEY, t_id INT REFERENCES t, note TEXT)",
    "CREATE INDEX i_u_t ON u (t_id)",
]
T_ROWS = [
    (1, 0, 10, "ant", 0.5, True),
    (2, 1, -3, "bee", 1.25, False),
    (3, 1, 0, None, 2.0, None),
    (4, 2, 25, "cat", None, True),
    (5, None, 7, "bee", 0.75, False),
    (6, 0, None, "dog", 3.5, True),
    (7, 2, 25, None, 0.25, None),
    (8, 1, 14, "ant", 1.5, True),
    (9, 0, -8, "cat", 2.25, False),
    (10, 2, None, None, None, None),
    (11, 1, 3, "bee", 4.0, True),
    (12, 0, 30, "eel", 1.0, False),
]
T_COLUMNS = ("id", "grp", "val", "name", "w", "flag")
U_ROWS = [(1, 1, "a"), (2, 1, "b"), (3, 4, "a"), (4, None, "c"), (5, 8, None), (6, 9, "b")]

#: committed after the stale snapshot is taken
LATER = [
    ("UPDATE t SET val = val + 100 WHERE grp = 1", ()),
    ("DELETE FROM t WHERE id = 12", ()),
    ("INSERT INTO t (id, grp, val, name, w, flag) VALUES (13, 1, 5, 'fox', 0.5, TRUE)", ()),
]
#: staged, uncommitted, ahead of each statement of the "own" case
OWN = [
    ("INSERT INTO t (id, grp, val, name, w, flag) VALUES (20, 2, NULL, 'own', 1.75, FALSE)", ()),
    ("UPDATE t SET name = 'own', val = 40 WHERE id = 3", ()),
    ("UPDATE t SET val = NULL WHERE id = 4", ()),
    ("DELETE FROM t WHERE id = 6", ()),
]

PROJECTIONS = ["*", "id, val", "id, name AS n, val * 2 AS v2, w", "x.id, x.grp"]
PREDICATES = [
    None,
    "val > 5",
    "grp = 1",
    "grp IN (0, 2)",
    "id IN (1, 3, 6, 13, 20)",
    "id = 3",
    "name IS NULL",
    "name LIKE 'b%' OR flag = TRUE",
    "val BETWEEN -5 AND 26 AND NOT (w < 1.0)",
    "t.val <> 25",
    "x.grp = 0 AND x.id > 4",
]
ORDERS = [None, "id DESC", "val", "name DESC, id", "grp, val DESC"]
LIMITS = [None, "3"]

AGGREGATES = [
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, MAX(name) AS hi, "
    "AVG(w) AS aw, COUNT(val) AS cv FROM t",
    "SELECT COUNT(*) AS n, SUM(val), MIN(w), MAX(val), AVG(val), COUNT(name) FROM t",
    "SELECT name, grp, SUM(val) AS s FROM t",
]
AGGREGATE_TAILS = [
    "",
    " WHERE val IS NOT NULL",
    " GROUP BY grp",
    " GROUP BY grp ORDER BY grp",
    " GROUP BY grp HAVING COUNT(*) > 2 ORDER BY n DESC",
    " GROUP BY grp HAVING SUM(val) > 20 AND grp <> 0",
    " GROUP BY grp HAVING MAX(val) - MIN(val) >= 10 ORDER BY grp DESC LIMIT 2",
    " GROUP BY grp HAVING NOT (COUNT(val) = 4) ORDER BY s",
    " GROUP BY grp HAVING s > 5 OR val > 20",
    " WHERE id < 11 GROUP BY grp, flag ORDER BY grp, flag LIMIT 4",
]

SINGLES = [
    # joins
    ("SELECT t.id, u.note FROM t JOIN u ON u.t_id = t.id WHERE t.grp = 1 ORDER BY uid", ()),
    ("SELECT t.id, u.uid FROM t LEFT JOIN u ON u.t_id = t.id ORDER BY id DESC", ()),
    ("SELECT * FROM u JOIN t ON t.id = u.t_id WHERE note = 'a'", ()),
    ("SELECT a.id, b.name FROM t a JOIN t b ON b.id = a.grp ORDER BY a.id", ()),
    ("SELECT id FROM t a JOIN t b ON b.id = a.grp", ()),
    ("SELECT t.grp, COUNT(*) AS n, SUM(u.uid) AS s FROM t JOIN u ON u.t_id = t.id "
     "GROUP BY t.grp HAVING COUNT(*) > 1 ORDER BY n DESC", ()),
    ("SELECT t.id FROM t JOIN u ON u.t_id = t.id WHERE z.note = 'a'", ()),
    # subqueries
    ("SELECT id FROM t WHERE val = (SELECT MAX(val) FROM t)", ()),
    ("SELECT id, name FROM t WHERE id IN (SELECT t_id FROM u WHERE note = 'a') ORDER BY id", ()),
    ("SELECT id FROM t WHERE val > (SELECT AVG(val) FROM t WHERE grp = ?) ORDER BY id", (1,)),
    ("SELECT id FROM t WHERE val = (SELECT val FROM t)", ()),
    # DISTINCT
    ("SELECT DISTINCT grp FROM t ORDER BY grp", ()),
    ("SELECT DISTINCT name, flag FROM t ORDER BY name DESC LIMIT 4", ()),
    ("SELECT DISTINCT grp FROM t ORDER BY id", ()),
    # parameters and LIMIT
    ("SELECT id FROM t WHERE val > ? AND name <> ? ORDER BY id LIMIT ?", (0, "cat", 4)),
    ("SELECT id FROM t WHERE grp = ? OR id = ? ORDER BY id", (2, 9)),
    ("SELECT id FROM t WHERE id = ?", ()),
    ("SELECT id FROM t LIMIT ?", ()),
    ("SELECT id FROM t ORDER BY id LIMIT NULL", ()),
    # faults a row has to reach
    ("SELECT bogus FROM t", ()),
    ("SELECT id FROM t WHERE bogus = 1", ()),
    ("SELECT id FROM t WHERE id = 99 AND bogus = 1", ()),
    ("SELECT id FROM t ORDER BY bogus", ()),
    ("SELECT y.id FROM t", ()),
    ("SELECT id FROM t x WHERE y.id = 1", ()),
    ("SELECT t.id FROM t x", ()),
    ("SELECT id FROM t WHERE name < 1", ()),
    ("SELECT id FROM t WHERE grp = 1 AND 10 / val > 1", ()),
    ("SELECT id FROM t WHERE SUM(val) > 1", ()),
    ("SELECT id, val + name FROM t WHERE id = 1", ()),
    ("SELECT SUM(name) AS s FROM t", ()),
    ("SELECT grp, SUM(10 / val) AS s FROM t GROUP BY grp", ()),
    ("SELECT grp, MIN(w) AS lo FROM t WHERE w IS NOT NULL OR flag = FALSE GROUP BY grp", ()),
    ("SELECT grp, MAX(name) AS m FROM t WHERE grp = 5 GROUP BY grp", ()),
    ("SELECT grp, SUM(val) AS s FROM t GROUP BY bogus", ()),
    ("SELECT y.grp, COUNT(*) AS n FROM t GROUP BY grp", ()),
    ("SELECT grp, SUM(bogus) AS s FROM t GROUP BY grp", ()),
    ("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING SUM(val) IN (1, 2)", ()),
    ("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING COUNT(*) > 9 AND SUM(val) IN (1)", ()),
    ("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING AVG(bogus) > 0", ()),
    ("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING y.val > 0", ()),
    ("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY val", ()),
    ("SELECT val, COUNT(*) AS n FROM t GROUP BY grp", ()),
    ("SELECT grp, val + 1 FROM t GROUP BY grp", ()),
    ("SELECT COUNT(*) AS n FROM t WHERE grp = 7", ()),
    ("SELECT MIN(val) AS lo, SUM(w) AS s, AVG(w) AS a FROM t WHERE grp = 7", ()),
    # DML
    ("UPDATE t SET val = ? WHERE id = ?", (77, 2)),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = FALSE WHERE id = 3", ()),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = FALSE WHERE id IN (4, 20, 99)", ()),
    ("UPDATE t SET grp = grp, val = 2, name = 'z', w = 0.5, flag = FALSE WHERE id = 3", ()),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = FALSE WHERE id = 3 AND val > 0", ()),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = FALSE WHERE id = 3 OR val > 20", ()),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = ? OR val > 0 WHERE id = ?", (True, 5)),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = ? OR val > 0 WHERE id = ?", (False, 5)),
    ("UPDATE t SET grp = 1, val = 2, name = 'z', w = 0.5, flag = TRUE WHERE id = 5 AND x.val > 0", ()),
    ("UPDATE t SET val = val + 1 WHERE grp = 2", ()),
    ("UPDATE t SET val = val * 2, w = w + 1 WHERE name LIKE '%e%'", ()),
    ("UPDATE t SET val = bogus WHERE id = 1", ()),
    ("UPDATE t SET val = x.val + 1 WHERE id = 1", ()),
    ("UPDATE t SET id = 5 WHERE id = 1", ()),
    ("UPDATE t SET val = 1 WHERE id IN (SELECT t_id FROM u WHERE note = 'b')", ()),
    ("DELETE FROM t WHERE grp = 0 AND val < 0", ()),
    ("DELETE FROM t WHERE id = 1", ()),
    ("DELETE FROM t WHERE id IN (7, 10, 13, 20)", ()),
    ("DELETE FROM u WHERE t_id IS NULL OR note = 'b'", ()),
    ("INSERT INTO t (id, grp, val, name) VALUES (?, 1, ?, 'new'), (31, ?, NULL, 'two')", (30, -1, 2)),
    ("INSERT INTO t (id, grp) VALUES (1, 1)", ()),
    ("INSERT INTO t (id, val) VALUES (50, 1 / 0)", ()),
    ("INSERT INTO t (id, val) VALUES (51, missing + 1)", ()),
    ("INSERT INTO u (uid, t_id, note) VALUES (9, 12, 'fk')", ()),
]


def corpus_statements():
    statements = []
    for projection, where, order, limit in itertools.product(
        PROJECTIONS, PREDICATES, ORDERS, LIMITS
    ):
        sql = f"SELECT {projection} FROM t" + (" x" if "x." in projection + (where or "") else "")
        if where:
            sql += f" WHERE {where}"
        if order:
            sql += f" ORDER BY {order}"
        if limit:
            sql += f" LIMIT {limit}"
        statements.append((sql, ()))
    # all 440 combinations would triple the fixture; a seeded sample of
    # 120 keeps it near 400 kB
    rng = random.Random(53)
    statements = rng.sample(statements, 120)
    for head, tail in itertools.product(AGGREGATES, AGGREGATE_TAILS):
        statements.append((head + tail, ()))
    return statements + SINGLES


def corpus_records():
    tables = {
        "t": [dict(zip(T_COLUMNS, row)) for row in T_ROWS],
        "u": [dict(zip(("uid", "t_id", "note"), row)) for row in U_ROWS],
    }
    sim, db = new_db(CORPUS_DDL, tables)
    stale = begin(db)  # holds the old versions readable
    run_transaction(sim, db, LATER, [], "later")
    out = []
    for sql, params in corpus_statements():
        for case in ("now", "stale", "own"):
            txn = begin(db)
            if case == "stale":
                txn.snapshot_csn = stale.snapshot_csn
            elif case == "own":
                for setup_sql, setup_params in OWN:
                    sim.run_process(db.execute(txn, setup_sql, setup_params))
            out.append({"case": case, **run_statement(sim, db, txn, sql, params)})
            if txn.active:
                db.abort(txn)
    return out


def records():
    return workload_records() + corpus_records()


def render(recs) -> str:
    return "".join(json.dumps(record) + "\n" for record in recs)


def test_statements_reproduce_the_recorded_fixture():
    expected = FIXTURE.read_text().splitlines(keepends=True)
    got = render(records()).splitlines(keepends=True)
    assert len(got) == len(expected)
    for line_got, line_expected in zip(got, expected):
        assert line_got == line_expected


if __name__ == "__main__" and "--record" in sys.argv:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(render(records()))
    print(f"wrote {FIXTURE}")
