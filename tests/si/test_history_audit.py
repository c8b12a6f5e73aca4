"""The keyed Def. 3 audit over live engine histories."""

from repro.si import KeyedAudit
from repro.sim import Simulator
from repro.storage import Database
from repro.testing import commit_sync, execute_sync, run_txn


def setup_db(sim, name):
    db = Database(sim, name=name)
    run_txn(
        sim, db,
        [
            ("CREATE TABLE kv (k INT PRIMARY KEY, v INT)",),
            ("INSERT INTO kv (k, v) VALUES (1, 0), (2, 0)",),
        ],
        gid=f"setup-{name}",
    )
    return db


def test_history_audit_keeps_the_committed_projection():
    sim = Simulator()
    db = setup_db(sim, "R1")
    # A committed writer, an aborted writer, a committed reader.
    t_commit = db.begin(gid="W")
    execute_sync(sim, db, t_commit, "UPDATE kv SET v = 1 WHERE k = 1")
    commit_sync(sim, db, t_commit)
    t_abort = db.begin(gid="A")
    execute_sync(sim, db, t_abort, "UPDATE kv SET v = 2 WHERE k = 2")
    db.abort(t_abort)
    t_read = db.begin(gid="Q")
    execute_sync(sim, db, t_read, "SELECT v FROM kv WHERE k = 1")
    commit_sync(sim, db, t_read)

    audit = KeyedAudit()
    audit.feed_history("R1", db.history)
    report = audit.report()
    assert report.ok
    witness = report.witness
    assert set(witness.transactions) == {"setup-R1", "W", "Q"}  # A dropped
    assert witness.is_si_schedule()
    assert witness.transactions["W"].writeset == frozenset({("kv", 1)})
    assert witness.transactions["Q"].readset == frozenset({("kv", 1)})
    assert not witness.transactions["Q"].writeset
    assert {gid: home for gid, (home, _begin) in audit.local.items()} == {
        "setup-R1": "R1", "W": "R1", "Q": "R1"
    }
    # Q read W's version: W commits before Q begins in the witness
    assert witness.before(("c", "W"), ("b", "Q"))


def test_histories_round_trip_through_the_audit():
    sim = Simulator()
    local = setup_db(sim, "R1")
    remote = setup_db(sim, "R2")

    # Local txn at R1, writeset applied at R2 (as the middleware would).
    txn = local.begin(gid="G1")
    execute_sync(sim, local, txn, "UPDATE kv SET v = 5 WHERE k = 1")
    ws = local.get_writeset(txn)
    commit_sync(sim, local, txn)

    def apply_remote():
        rtxn = remote.begin(gid="G1", remote=True)
        yield from remote.apply_writeset(rtxn, ws)
        yield from remote.commit(rtxn)

    sim.run_process(apply_remote())

    # Exclude the per-replica setup transactions: they are independent
    # bootstrap writes, not ROWA-mapped transactions.
    audit = KeyedAudit()
    for name, db in (("R1", local), ("R2", remote)):
        audit.feed_history(
            name, [e for e in db.history if not str(e[1]).startswith("setup-")]
        )
    assert {gid: home for gid, (home, _begin) in audit.local.items()} == {"G1": "R1"}
    report = audit.report()
    assert report.ok
    assert report.witness.transactions["G1"].readset == frozenset({("kv", 1)})
