"""Certifier salvage (cert refresh) edge cases.

Salvage commutes a transaction past a conflicting predecessor only when
the conflict touches nothing the transaction read: every conflicting key
blind, no tombstoned key, no dependent read overwritten in the shift
interval.  These tests pin each refusal reason and the state that must
survive clone/checkpoint so recovered incarnations decide identically.
"""

from repro.core.validation import Certifier, WsRecord
from repro.durable.checkpoint import Checkpoint
from repro.storage.writeset import DELETE, UPDATE, WriteOp, WriteSet


def ws(*keys, op=UPDATE):
    return WriteSet([WriteOp("t", k, op, {"k": k, "v": 0}) for k in keys])


def key(k):
    return ("t", k)


def blind_record(gid, *keys, cert=0, readset=()):
    writeset = ws(*keys)
    return WsRecord(
        gid,
        writeset,
        cert=cert,
        blind=writeset.keys,
        readset=frozenset(readset),
    )


def test_blind_conflict_is_salvaged():
    certifier = Certifier(salvage=True)
    assert certifier.validate(blind_record("g1", 1))
    record = blind_record("g2", 1, cert=0)  # concurrent with g1
    assert certifier.validate(record)
    assert record.salvaged
    assert record.cert == 1  # refreshed to the pre-validation tid
    assert record.tid == 2
    assert certifier.salvaged == 1
    assert certifier.rejected == 0


def test_salvage_off_still_aborts_blind_conflicts():
    certifier = Certifier()  # knob defaulted off
    assert certifier.validate(blind_record("g1", 1))
    record = blind_record("g2", 1, cert=0)
    assert not certifier.validate(record)
    assert not record.salvaged
    assert certifier.salvage_rejects == 0  # counter is salvage-mode only


def test_rmw_conflicting_key_still_aborts():
    """First-committer-wins is load-bearing for values the loser read:
    a conflicting key that is not blind (or is in the readset) aborts."""
    certifier = Certifier(salvage=True)
    assert certifier.validate(blind_record("g1", 1))
    rmw = WsRecord("g2", ws(1), cert=0)  # empty blind set: v = v + 1 style
    assert not certifier.validate(rmw)
    assert certifier.salvage_rejects == 1
    # explicit read of the written key (SELECT then UPDATE) also aborts
    read_then_write = WsRecord(
        "g3", ws(1), cert=0, blind=ws(1).keys, readset=frozenset({key(1)})
    )
    assert not certifier.validate(read_then_write)
    assert certifier.salvage_rejects == 2
    assert certifier.salvaged == 0


def test_stale_dependent_read_blocks_salvage():
    """Blind conflicting key, but the txn *read* another key that was
    overwritten in the shift interval — its after images may depend on a
    value that is no longer current, so the shift is not invisible."""
    certifier = Certifier(salvage=True)
    assert certifier.validate(blind_record("g1", 1, 2))  # tid 1 writes 1,2
    record = blind_record("g2", 1, cert=0, readset=frozenset({key(2)}))
    assert not certifier.validate(record)
    assert certifier.salvage_rejects == 1
    # same record without the stale read salvages fine
    assert certifier.validate(blind_record("g3", 1, cert=0))
    assert certifier.salvaged == 1


def test_tombstoned_key_blocks_salvage():
    """A blind after image cannot commute past a DELETE of its row."""
    certifier = Certifier(salvage=True)
    deleter = WsRecord("g1", ws(1, op=DELETE), cert=0)
    assert certifier.validate(deleter)
    record = blind_record("g2", 1, cert=0)
    assert not certifier.validate(record)
    assert certifier.salvage_rejects == 1
    # a fresh-cert write over the tombstone clears it again
    assert certifier.validate(blind_record("g3", 1, cert=certifier.last_validated_tid))
    assert certifier.validate(blind_record("g4", 1, cert=0))  # salvaged now
    assert certifier.salvaged == 1


def test_partially_blind_writeset_aborts():
    """One conflicting key blind, another RMW: the whole txn aborts."""
    certifier = Certifier(salvage=True)
    assert certifier.validate(blind_record("g1", 1, 2))
    writeset = ws(1, 2)
    record = WsRecord(
        "g2", writeset, cert=0, blind=frozenset({key(1)})  # key 2 is RMW
    )
    assert not certifier.validate(record)
    assert certifier.salvage_rejects == 1


def test_failed_salvage_leaves_no_trace():
    certifier = Certifier(salvage=True)
    assert certifier.validate(blind_record("g1", 1))
    rmw = WsRecord("g2", ws(1, 5), cert=0)
    assert not certifier.validate(rmw)
    assert rmw.cert == 0 and not rmw.salvaged  # record untouched
    # key 5 was never certified by the failed g2
    assert certifier.validate(blind_record("g3", 5, cert=0))


def test_clone_carries_salvage_state():
    """Recovery state transfer: the clone must reach the same salvage
    decisions as the donor — same mode, same tombstones."""
    donor = Certifier(salvage=True)
    assert donor.validate(WsRecord("g1", ws(1, op=DELETE), cert=0))
    assert donor.validate(blind_record("g2", 2))
    clone = Certifier.from_wire(donor.to_wire())
    assert clone.salvage is True
    assert clone._deleted == donor._deleted
    for certifier in (donor, clone):
        tomb = blind_record("t1", 1, cert=0)
        assert not certifier.validate(tomb)  # tombstone refusal survives
        fine = blind_record("t2", 2, cert=0)
        assert certifier.validate(fine) and fine.salvaged
    assert donor.last_validated_tid == clone.last_validated_tid


def test_checkpoint_roundtrips_tombstones():
    certifier = Certifier(salvage=True)
    assert certifier.validate(WsRecord("g1", ws(1, op=DELETE), cert=0))
    assert certifier.validate(WsRecord("g2", ws(2), cert=1))
    checkpoint = Checkpoint.capture(
        seq=2, cert_seq=2, applied_beyond=(), csn=2, ddl=(),
        rows={}, certifier=certifier, outcomes={},
    )
    restored = Checkpoint.from_json(checkpoint.to_json())
    # a certifier rebuilt from the restored checkpoint refuses the same
    # salvage the live one would
    rebuilt = Certifier.from_wire(restored.certifier_state)
    assert rebuilt.tombstones == certifier.tombstones == {("t", 1)}
    assert rebuilt.salvage is True
    live_probe = blind_record("p", 1, cert=0)
    rebuilt_probe = blind_record("p", 1, cert=0)
    assert certifier.validate(live_probe) == rebuilt.validate(rebuilt_probe)
