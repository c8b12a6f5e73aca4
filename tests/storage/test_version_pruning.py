"""Commit-time version pruning is invisible to every snapshot.

Hypothesis interleaves begin, read, scan, UPDATE / INSERT / DELETE,
commit and abort of a few clients on a handful of rows of one
:class:`Database`, and checks the engine against a reference that keeps
every committed ``(csn, value)`` of every key:

* every read returns the reference's value at its transaction's
  snapshot, or the transaction's own write;
* a write conflicts exactly when the reference holds a version of its
  row newer than the writer's snapshot: first-updater-wins still sees
  every concurrent write, deletes included;
* after every commit, each row it wrote keeps exactly its newest version
  and the versions the active snapshots read; a row whose newest version
  is a delete that no active snapshot predates is gone.
"""

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, SerializationFailure
from repro.sim import Simulator
from repro.storage import Database
from repro.testing import commit_sync, execute_sync

N_KEYS = 5  # keys 1..N_KEYS; the first N_LOADED exist at csn 0
N_LOADED = 3
N_CLIENTS = 3

STATEMENTS = {
    "update": "UPDATE kv SET v = ? WHERE k = ?",
    "insert": "INSERT INTO kv (k, v) VALUES (?, ?)",
    "delete": "DELETE FROM kv WHERE k = ?",
}

steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_CLIENTS - 1),
        st.sampled_from(
            ["begin", "begin", "read", "scan", "update", "update", "insert",
             "delete", "commit", "commit", "abort"]
        ),
        st.integers(min_value=1, max_value=N_KEYS),
        st.integers(min_value=0, max_value=99),
    ),
    max_size=60,
)


class Reference:
    """Every committed value of every key, ascending csn; None = deleted."""

    def __init__(self) -> None:
        self.versions: dict[int, list[tuple[int, Optional[int]]]] = {
            key: [(0, 0)] for key in range(1, N_LOADED + 1)
        }

    def at(self, key: int, snapshot: int) -> Optional[tuple[int, Optional[int]]]:
        """The newest ``(csn, value)`` at or below the snapshot."""
        found = None
        for csn, value in self.versions.get(key, ()):
            if csn <= snapshot:
                found = (csn, value)
        return found

    def value(self, key: int, snapshot: int) -> Optional[int]:
        found = self.at(key, snapshot)
        return None if found is None else found[1]

    def newest_csn(self, key: int) -> int:
        return self.versions[key][-1][0] if key in self.versions else -1


class Client:
    def __init__(self) -> None:
        self.txn = None
        self.staged: dict[int, Optional[int]] = {}

    @property
    def open(self) -> bool:
        return self.txn is not None and self.txn.active

    def sees(self, ref: Reference, key: int) -> Optional[int]:
        if key in self.staged:
            return self.staged[key]
        return ref.value(key, self.txn.snapshot_csn)


def fresh(mode: str) -> tuple[Simulator, Database]:
    sim = Simulator(seed=0)
    db = Database(sim, name="R", conflict_detection=mode)
    db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    db.bulk_load("kv", [{"k": key, "v": 0} for key in range(1, N_LOADED + 1)])
    return sim, db


def kept_csns(db: Database, key: int) -> list[int]:
    head = db.catalog.table("kv").rows.get(key)
    return [] if head is None else [version.csn for version in head]


def check_pruned(db, ref, clients, written) -> None:
    snapshots = {c.txn.snapshot_csn for c in clients if c.open}
    for key in written:
        newest_csn, newest_value = ref.versions[key][-1]
        expected = {newest_csn}
        expected |= {found[0] for s in snapshots if (found := ref.at(key, s))}
        if not snapshots and newest_value is None:
            expected = set()  # a delete no snapshot predates frees the row
        kept = kept_csns(db, key)
        assert kept == sorted(expected, reverse=True), (key, kept, snapshots)


def write(sim, db, ref, client, kind, key, value) -> None:
    """Run one write statement and check its conflict outcome."""
    snapshot = client.txn.snapshot_csn
    visible = client.sees(ref, key) is not None
    locking = db.conflict_detection == "locking"
    if locking and db.locks.holder(("kv", key)) not in (None, client.txn):
        return  # it would wait for the holder; the script has one thread
    reaches_check = kind == "insert" or visible
    conflict = (
        locking and reaches_check and key not in client.staged
        and ref.newest_csn(key) > snapshot
    )
    params = {"update": (value, key), "insert": (key, value), "delete": (key,)}[kind]
    try:
        result = execute_sync(sim, db, client.txn, STATEMENTS[kind], params)
    except SerializationFailure:
        assert conflict, (kind, key, snapshot)
        return
    except IntegrityError:
        assert kind == "insert" and not conflict
        return
    assert not conflict, (kind, key, snapshot)
    if kind == "insert":
        client.staged[key] = value
    else:
        assert result.rowcount == (1 if visible else 0)
        if visible:
            client.staged[key] = value if kind == "update" else None


def commit(sim, db, ref, clients, client) -> None:
    snapshot = client.txn.snapshot_csn
    conflict = db.conflict_detection == "deferred" and any(
        ref.newest_csn(key) > snapshot for key in client.staged
    )
    try:
        csn = commit_sync(sim, db, client.txn)
    except SerializationFailure:
        assert conflict
        return
    assert not conflict
    if not client.staged:
        assert csn is None
        return
    for key, value in client.staged.items():
        ref.versions.setdefault(key, []).append((csn, value))
    check_pruned(db, ref, clients, client.staged)


def run_script(mode: str, script) -> None:
    sim, db = fresh(mode)
    ref = Reference()
    clients = [Client() for _ in range(N_CLIENTS)]
    for cid, kind, key, value in script:
        client = clients[cid]
        if kind == "begin":
            if client.open:
                db.abort(client.txn)
            client.txn = db.begin()
            client.staged = {}
        elif not client.open:
            continue
        elif kind == "read":
            result = execute_sync(
                sim, db, client.txn, "SELECT v FROM kv WHERE k = ?", (key,)
            )
            expected = client.sees(ref, key)
            assert result.rows == ([] if expected is None else [{"v": expected}])
        elif kind == "scan":
            result = execute_sync(sim, db, client.txn, "SELECT k, v FROM kv")
            expected = {
                k: v for k in range(1, N_KEYS + 1)
                if (v := client.sees(ref, k)) is not None
            }
            assert {row["k"]: row["v"] for row in result.rows} == expected
            assert len(result.rows) == len(expected)
        elif kind in STATEMENTS:
            write(sim, db, ref, client, kind, key, value)
        elif kind == "commit":
            commit(sim, db, ref, clients, client)
        else:
            db.abort(client.txn)


@pytest.mark.parametrize("mode", ["locking", "deferred"])
@settings(max_examples=150, deadline=None)
@given(script=steps)
def test_pruning_is_invisible_to_every_snapshot(mode, script):
    run_script(mode, script)


def test_a_delete_an_open_snapshot_predates_still_conflicts():
    """The tombstone of a row no open snapshot ever saw stays while such
    a snapshot is open: the insert of that snapshot's transaction must
    still lose to the concurrent insert and delete."""
    sim, db = fresh("locking")
    ref, clients = Reference(), [Client() for _ in range(2)]
    old, writer = clients
    old.txn = db.begin()  # key 4 unborn at this snapshot
    for kind in ("insert", "delete"):
        writer.txn, writer.staged = db.begin(), {}
        write(sim, db, ref, writer, kind, 4, 7)
        commit(sim, db, ref, clients, writer)
    assert kept_csns(db, 4) == [2]  # only the tombstone
    with pytest.raises(SerializationFailure):
        execute_sync(sim, db, old.txn, STATEMENTS["insert"], (4, 1))
    # with no snapshot open, a delete frees its row at once
    writer.txn, writer.staged = db.begin(), {}
    write(sim, db, ref, writer, "delete", 1, 0)
    commit(sim, db, ref, clients, writer)
    assert kept_csns(db, 1) == []
    assert 1 not in db.catalog.table("kv").rows
