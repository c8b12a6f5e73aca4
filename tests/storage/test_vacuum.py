"""VACUUM's job, done on the commit path: every commit prunes the rows it
writes down to the versions an active or future snapshot can read."""

import pytest

from repro.sim import Simulator
from repro.storage import Database
from repro.testing import commit_sync, execute_sync, query, run_txn


@pytest.fixture
def env():
    sim = Simulator(seed=1)
    db = Database(sim, name="R")
    run_txn(
        sim, db,
        [
            ("CREATE TABLE kv (k INT PRIMARY KEY, v INT)",),
            ("INSERT INTO kv (k, v) VALUES (1, 0), (2, 0)",),
        ],
    )
    return sim, db


def bump(sim, db, key, times, start=0):
    for i in range(start, start + times):
        run_txn(sim, db, [("UPDATE kv SET v = ? WHERE k = ?", (i + 1, key))])


def csns(db, key):
    return [version.csn for version in db.catalog.table("kv").rows[key]]


def test_vacuum_prunes_dead_versions(env):
    sim, db = env
    bump(sim, db, 1, 5)
    # no snapshot was open: each commit dropped the version it replaced
    assert db.version_count() == 2
    assert csns(db, 1) == [db.csn]
    assert query(sim, db, "SELECT v FROM kv WHERE k = 1") == [{"v": 5}]


def test_vacuum_keeps_versions_visible_to_active_snapshot(env):
    sim, db = env
    reader = db.begin()  # snapshot before the updates
    execute_sync(sim, db, reader, "SELECT v FROM kv WHERE k = 1")
    bump(sim, db, 1, 4)
    # the reader's version survived every commit; the ones between them,
    # which no snapshot reads, did not
    assert csns(db, 1) == [5, 1]
    result = execute_sync(sim, db, reader, "SELECT v FROM kv WHERE k = 1")
    assert result.rows == [{"v": 0}]
    commit_sync(sim, db, reader)
    # nothing protects the old versions now: the next write drops them
    bump(sim, db, 1, 1, start=4)
    assert csns(db, 1) == [6]
    assert query(sim, db, "SELECT v FROM kv WHERE k = 1") == [{"v": 5}]


def test_vacuum_removes_invisible_tombstoned_rows(env):
    sim, db = env
    run_txn(sim, db, [("DELETE FROM kv WHERE k = 2",)])
    table = db.catalog.table("kv")
    assert 2 not in table.rows
    assert db.version_count() == 1
    assert query(sim, db, "SELECT COUNT(*) AS n FROM kv") == [{"n": 1}]


def test_vacuum_keeps_visible_tombstone_for_old_reader(env):
    sim, db = env
    reader = db.begin()
    execute_sync(sim, db, reader, "SELECT COUNT(*) AS n FROM kv")
    run_txn(sim, db, [("DELETE FROM kv WHERE k = 2",)])
    assert csns(db, 2) == [2, 1]  # the tombstone and the row it hides
    result = execute_sync(sim, db, reader, "SELECT COUNT(*) AS n FROM kv")
    assert result.rows == [{"n": 2}]  # old snapshot still sees the row
    commit_sync(sim, db, reader)
    assert query(sim, db, "SELECT COUNT(*) AS n FROM kv") == [{"n": 1}]


def test_vacuum_idempotent(env):
    sim, db = env
    bump(sim, db, 1, 3)
    before = csns(db, 1)
    # a later commit prunes only what it writes; a pruned row stays as is
    bump(sim, db, 2, 1)
    assert csns(db, 1) == before
    assert db.version_count() == 2


def test_vacuum_after_reinsert(env):
    sim, db = env
    run_txn(sim, db, [("DELETE FROM kv WHERE k = 1",)])
    run_txn(sim, db, [("INSERT INTO kv (k, v) VALUES (1, 9)",)])
    assert query(sim, db, "SELECT v FROM kv WHERE k = 1") == [{"v": 9}]
    assert csns(db, 1) == [db.csn]  # only the live version remains
