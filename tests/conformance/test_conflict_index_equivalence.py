"""Property suite: the key-indexed hot-path structures are observationally
identical to the pinned linear-scan oracles in ``repro.core._reference``.

Three layers are locked down (DESIGN.md §4j):

* :class:`ToCommitQueue` vs :class:`ReferenceToCommitQueue` on random
  append/extend/remove/install interleavings, crash-prefix rebuilds
  included — every query (head, predecessors under both pipelining
  modes, overlaps, shared_keys, iteration order) must agree;
* :class:`Certifier` with window GC at arbitrarily chosen *valid*
  floors vs :class:`ReferenceCertifier` (unbounded) on random
  certification streams — salvage on and off, mid-stream clone() forks,
  and checkpoint JSON roundtrips carrying the floor;
* :func:`conflict_degrees` vs the pairwise-intersection formulation the
  GCS reorder pass used before.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conflictindex import conflict_degrees
from repro.core._reference import ReferenceCertifier, ReferenceToCommitQueue
from repro.core.tocommit import Entry, ToCommitQueue
from repro.core.validation import Certifier, WsRecord
from repro.durable.checkpoint import Checkpoint
from repro.storage.writeset import DELETE, UPDATE, WriteOp, WriteSet

KEYS = list(range(8))


def ws(keys, op=UPDATE):
    return WriteSet(
        [WriteOp("t", k, op, None if op == DELETE else {"k": k}) for k in keys]
    )


def make_entry(gid, keys):
    record = WsRecord(gid, ws(keys), cert=0)
    record.tid = 0
    return Entry(record)


keysets = st.sets(st.sampled_from(KEYS), min_size=1, max_size=4)


# ------------------------------------------------------------ queue scripts


def check_queue_agreement(indexed, reference, data):
    """Every observable of the two queues must coincide.

    The SAME Entry objects live in both queues (the reference never
    touches the index bookkeeping), so object-identity comparisons are
    exact, not structural.
    """
    assert len(indexed) == len(reference)
    assert [e.gid for e in indexed] == [e.gid for e in reference]
    assert indexed.head() is reference.head()
    assert indexed.appended_total == reference.appended_total
    assert indexed.appended_batches == reference.appended_batches
    probe = ws(data.draw(keysets, label="probe"))
    assert indexed.overlaps(probe) == reference.overlaps(probe)
    assert sorted(indexed.shared_keys(probe), key=repr) == (
        reference.shared_keys(probe)
    )
    for entry in list(indexed):
        assert indexed.conflicting_predecessor(entry) is (
            reference.conflicting_predecessor(entry)
        )
        for installed_ok in (False, True):
            assert indexed.blocking_predecessor(
                entry, installed_ok=installed_ok
            ) is reference.blocking_predecessor(
                entry, installed_ok=installed_ok
            )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_queue_matches_linear_scan_reference(data):
    indexed, reference = ToCommitQueue(), ReferenceToCommitQueue()
    gid = 0
    for _ in range(data.draw(st.integers(4, 30), label="ops")):
        ops = ["append", "extend", "rebuild"]
        if len(indexed):
            ops += ["remove", "install"]
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "append":
            entry = make_entry(f"g{gid}", data.draw(keysets, label="keys"))
            gid += 1
            indexed.append(entry)
            reference.append(entry)
        elif op == "extend":
            batch = []
            for _ in range(data.draw(st.integers(0, 4), label="batch")):
                batch.append(
                    make_entry(f"g{gid}", data.draw(keysets, label="bkeys"))
                )
                gid += 1
            indexed.extend(batch)
            reference.extend(batch)
        elif op == "remove":
            victim = data.draw(
                st.sampled_from(list(indexed)), label="victim"
            )
            indexed.remove(victim)
            reference.remove(victim)
        elif op == "install":
            target = data.draw(
                st.sampled_from(list(indexed)), label="target"
            )
            target.installed = True
        else:  # rebuild: a crash kept only a prefix of the queue
            keep = data.draw(
                st.integers(0, len(indexed)), label="crash-prefix"
            )
            survivors = [
                make_entry(e.gid, [pk for _t, pk in e.writeset.keys])
                for e in list(indexed)[:keep]
            ]
            indexed, reference = ToCommitQueue(), ReferenceToCommitQueue()
            indexed.extend(survivors)
            reference.extend(survivors)
        check_queue_agreement(indexed, reference, data)


# ------------------------------------------------------ certifier GC streams


record_specs = st.lists(
    st.tuples(
        keysets,  # written keys
        st.integers(0, 6),  # cert lag behind delivery-time tid
        st.booleans(),  # blind writes?
        st.sets(st.sampled_from(KEYS), max_size=2),  # dependent readset
        st.booleans(),  # DELETE instead of UPDATE
    ),
    min_size=1,
    max_size=25,
)


def build_record(i, spec, tid_now):
    keys, lag, blind, readset, delete = spec
    return WsRecord(
        f"g{i}",
        ws(keys, op=DELETE if delete else UPDATE),
        cert=max(0, tid_now - lag),
        readset=frozenset(("t", k) for k in readset),
        blind=frozenset(("t", k) for k in keys) if blind else frozenset(),
    )


def certs_of_stream(specs, salvage):
    """Pre-play on a scratch reference to learn each record's original
    (payload) certificate at delivery time."""
    scratch = ReferenceCertifier(salvage=salvage)
    certs = []
    for i, spec in enumerate(specs):
        record = build_record(i, spec, scratch.last_validated_tid)
        certs.append(record.cert)  # BEFORE validate — salvage mutates it
        scratch.validate(record)
    return certs


@settings(max_examples=80, deadline=None)
@given(specs=record_specs, salvage=st.booleans(), data=st.data())
def test_certifier_gc_matches_unbounded_reference(specs, salvage, data):
    certs = certs_of_stream(specs, salvage)
    gcd = Certifier(salvage=salvage)
    reference = ReferenceCertifier(salvage=salvage)
    forks = None  # (gcd clone, reference clone) continuation, if drawn
    fork_at = data.draw(
        st.one_of(st.none(), st.integers(0, len(specs) - 1)), label="fork"
    )
    for i, spec in enumerate(specs):
        r_gc = build_record(i, spec, reference.last_validated_tid)
        r_ref = copy.deepcopy(r_gc)
        assert r_gc.cert == certs[i]
        assert gcd.validate(r_gc) == reference.validate(r_ref)
        assert r_gc.tid == r_ref.tid
        assert r_gc.cert == r_ref.cert  # salvage refresh agrees too
        assert r_gc.salvaged == r_ref.salvaged
        if forks is not None:
            f_gc, f_ref = forks
            fr_gc = build_record(i, spec, f_ref.last_validated_tid)
            fr_ref = copy.deepcopy(fr_gc)
            assert f_gc.validate(fr_gc) == f_ref.validate(fr_ref)
            assert fr_gc.tid == fr_ref.tid
        if fork_at == i:
            forks = (Certifier.from_wire(gcd.to_wire()), reference.clone())
        # a floor is valid iff no future (original) cert sits below it
        if data.draw(st.booleans(), label="collect?"):
            bound = min(certs[i + 1:], default=gcd.last_validated_tid)
            floor = data.draw(st.integers(0, bound), label="floor")
            gcd.collect(floor)
            if forks is not None:
                forks[0].collect(floor)
    assert gcd.window_size <= reference.window_size
    assert gcd.last_validated_tid == reference.last_validated_tid
    assert gcd.floor_aborts == 0
    for attr in ("validated", "rejected", "salvaged", "salvage_rejects"):
        assert getattr(gcd, attr) == getattr(reference, attr), attr


@settings(max_examples=60, deadline=None)
@given(specs=record_specs, salvage=st.booleans(), data=st.data())
def test_checkpoint_roundtrip_resumes_identically(specs, salvage, data):
    """Capture the GC'd certifier mid-stream, roundtrip it through
    checkpoint JSON (cert_floor included), and resume on the restored
    copy: decisions must keep matching the unbounded reference."""
    certs = certs_of_stream(specs, salvage)
    gcd = Certifier(salvage=salvage)
    reference = ReferenceCertifier(salvage=salvage)
    cut = data.draw(st.integers(0, len(specs)), label="cut")
    for i, spec in enumerate(specs[:cut]):
        reference.validate(
            build_record(i, spec, reference.last_validated_tid)
        )
        gcd.validate(build_record(i, spec, gcd.last_validated_tid))
        gcd.collect(min(certs[i + 1:], default=gcd.last_validated_tid))
    blob = Checkpoint.capture(
        seq=cut, cert_seq=cut, applied_beyond=(), csn=cut, ddl=(),
        rows={}, certifier=gcd, outcomes={},
    ).to_json()
    checkpoint = Checkpoint.from_json(blob)
    restored = Certifier.from_wire(checkpoint.certifier_state)
    assert restored.salvage is salvage
    assert restored.floor == gcd.floor
    for i, spec in enumerate(specs[cut:], start=cut):
        r_new = build_record(i, spec, reference.last_validated_tid)
        r_ref = copy.deepcopy(r_new)
        assert restored.validate(r_new) == reference.validate(r_ref)
        assert r_new.tid == r_ref.tid
        assert r_new.salvaged == r_ref.salvaged
    assert restored.floor_aborts == 0


# ------------------------------------------------------- GCS reorder degrees


@settings(max_examples=120, deadline=None)
@given(sets=st.lists(st.frozensets(st.sampled_from(KEYS), max_size=4),
                     max_size=12))
def test_conflict_degrees_match_pairwise_intersection(sets):
    expected = [
        sum(
            1
            for j, other in enumerate(sets)
            if j != i and not other.isdisjoint(mine)
        )
        for i, mine in enumerate(sets)
    ]
    assert conflict_degrees(sets) == expected
