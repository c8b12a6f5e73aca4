"""Optimistic writeset certification (Fig. 1 step I.3 / Fig. 4 step II).

A transaction T carries a certificate ``cert``: the tid of the last
validated (Fig. 4) or last locally-committed (Fig. 1) transaction observed
when T's snapshot position was fixed.  Validation of T fails iff some
already-validated transaction Tj with ``T.cert < Tj.tid`` overlaps T's
writeset — i.e. a concurrent writer was certified first.

The check "∃ Tj ∈ ws_list: cert < Tj.tid ∧ WS ∩ WSj ≠ ∅" is implemented
with a per-tuple last-certified-tid map, which is observationally
identical to scanning ``ws_list`` but O(|WS|) per validation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional

from repro.storage.writeset import DELETE, WriteSet


@dataclass
class WsRecord:
    """A writeset travelling through certification.

    ``readset`` carries the (table, pk) keys whose *values* the
    transaction's writes depend on (read-modify-write); ``blind`` the
    written keys whose after images were computed without reading the
    row.  Both are empty unless the sender threads them through, which
    keeps salvage a strict opt-in: with an empty ``blind`` set every
    conflict aborts, exactly as before.
    """

    gid: str
    writeset: WriteSet
    cert: int
    sender: str = ""
    tid: Optional[int] = None
    readset: FrozenSet[tuple[str, Any]] = field(default_factory=frozenset)
    blind: FrozenSet[tuple[str, Any]] = field(default_factory=frozenset)
    #: set by the certifier when the record committed via cert refresh
    salvaged: bool = False


class Certifier:
    """Deterministic certification state.

    Every SRCA-Rep middleware replica holds one and feeds it writesets in
    total-order delivery sequence, so all replicas reach identical
    decisions (§5.3).
    """

    def __init__(self, salvage: bool = False) -> None:
        #: opt-in SCAR-style cert refresh for blind-write-only conflicts
        self.salvage = salvage
        self.last_validated_tid = 0
        #: (table, pk) -> tid of the last certified transaction writing it
        self._last_writer: dict[tuple[str, Any], int] = {}
        #: keys whose last certified write was a DELETE — a blind write
        #: over a tombstone cannot be replayed as a plain after image, so
        #: salvage refuses to commute past it
        self._deleted: set[tuple[str, Any]] = set()
        self.validated = 0
        self.rejected = 0
        self.salvaged = 0
        self.salvage_rejects = 0
        #: window-GC truncation point: every certificate this instance
        #: will ever be asked to decide is >= floor (:class:`GcFloor`
        #: proves it), so last-writer entries with tid <= floor can never
        #: satisfy ``tid > cert`` again and :meth:`collect` prunes them
        self.floor = 0
        self.gc_runs = 0
        self.gc_collected = 0
        #: defence in depth: a certificate below the floor reached a
        #: certifier whose pruned state cannot decide it — deterministic
        #: conservative abort (never fires when the floor is sound)
        self.floor_aborts = 0

    def conflicts(self, record: WsRecord) -> bool:
        """Would ``record`` fail validation right now? (No state change.)"""
        return any(
            self._last_writer.get(key, 0) > record.cert
            for key in record.writeset.keys
        )

    def _try_salvage(self, record: WsRecord) -> bool:
        """Refresh ``record.cert`` to now iff the shift is invisible.

        Moving a transaction's logical snapshot forward to
        ``last_validated_tid`` is sound iff (a) every conflicting key was
        written *blindly* — first-committer-wins only protects values the
        loser actually read, so read-modify-write keys still abort — and
        (b) no key the transaction's writes depend on (its dependent
        readset) was overwritten in the shift interval, and (c) no
        conflicting predecessor deleted the row out from under the blind
        after image.  All inputs are deterministic delivery-order state,
        so every replica reaches the same salvage decision.
        """
        for key in record.writeset.keys:
            if self._last_writer.get(key, 0) <= record.cert:
                continue  # not a conflicting key
            if key not in record.blind or key in record.readset:
                return False  # read-modify-write: first committer wins
            if key in self._deleted:
                return False  # predecessor deleted the row (tombstone)
        for key in record.readset:
            if self._last_writer.get(key, 0) > record.cert:
                return False  # a dependent read went stale over the shift
        record.cert = self.last_validated_tid
        record.salvaged = True
        return True

    def validate(self, record: WsRecord) -> bool:
        """Certify ``record``; on success assigns ``record.tid``.

        Must be called in writeset delivery (total) order.
        """
        if record.cert < self.floor:
            # the GC floor guarantees no in-flight certificate sits below
            # it; if one ever does, conflicts() would consult pruned
            # state, so abort conservatively.  A sound floor means this
            # never fires — the counter existing is what lets tests and
            # dashboards assert that.
            self.floor_aborts += 1
            self.rejected += 1
            return False
        if self.conflicts(record):
            if not (self.salvage and self._try_salvage(record)):
                if self.salvage:
                    self.salvage_rejects += 1
                self.rejected += 1
                return False
            self.salvaged += 1
        record.tid = self.last_validated_tid + 1
        self.record_pass(record.tid, record.writeset.ops)
        return True

    def record_pass(self, tid: int, ops) -> None:
        """The state transition of a passing validation: ``tid`` becomes
        the last validated tid and the last writer of every key ``ops``
        (the writeset's WriteOps) write, and they set or clear the
        tombstones.  Keys enter the last-writer map in write order, so
        its order (and :meth:`to_wire`'s) does not depend on string
        hashing.  Log replay calls it with a logged record's tid:
        certification is deterministic and a reject leaves no state
        behind, so replaying the passes alone rebuilds the state."""
        self.last_validated_tid = tid
        last_writer, deleted = self._last_writer, self._deleted
        for op in ops:
            key = op.key
            last_writer[key] = tid
            if op.op == DELETE:
                deleted.add(key)
            else:
                deleted.discard(key)
        self.validated += 1

    @property
    def last_writers(self) -> dict[tuple[str, Any], int]:
        """(table, pk) -> tid of its last certified writer (read only)."""
        return self._last_writer

    @property
    def tombstones(self) -> set[tuple[str, Any]]:
        """Keys whose last certified write was a DELETE (read only)."""
        return self._deleted

    @property
    def decisions(self) -> int:
        return self.validated + self.rejected

    @property
    def window_size(self) -> int:
        """Tuples tracked in the last-writer map — the certification
        working set (bounded by the active window once :meth:`collect`
        runs; grows with the distinct keys ever written otherwise)."""
        return len(self._last_writer)

    def collect(self, floor: int) -> int:
        """Prune last-writer entries with ``tid <= floor``.

        Sound iff every certificate still to be validated is >= ``floor``
        (what :class:`GcFloor` computes): a pruned entry then can never
        satisfy the conflict test ``tid > cert`` again, and its absence reads as
        tid 0 — the same decision.  Tombstones are pruned in lockstep:
        salvage only consults ``_deleted`` for *conflicting* keys, whose
        last writer is by definition above the floor and hence retained.
        Returns the number of keys swept; the floor is monotone.
        """
        if floor <= self.floor:
            return 0
        self.floor = floor
        dead = [key for key, tid in self._last_writer.items() if tid <= floor]
        for key in dead:
            del self._last_writer[key]
            self._deleted.discard(key)
        self.gc_runs += 1
        self.gc_collected += len(dead)
        return len(dead)

    #: the decision state, in :meth:`to_wire` order
    _STATE = (
        "salvage", "last_validated_tid", "_last_writer", "_deleted",
        "floor", "validated", "rejected", "salvaged", "salvage_rejects",
        "gc_runs", "gc_collected", "floor_aborts",
    )

    def to_wire(self) -> tuple:
        """The whole decision state as JSON-ready builtins — the tombstone
        set, salvage mode, GC floor and decision counters included — in
        the one form both the wire codec and a checkpoint image carry:
        last writers as ``[table, pk, tid]`` lists, tombstones as sorted
        ``[table, pk]`` lists.  A replica restored from it decides and
        reports exactly as the one that captured it."""
        state = [getattr(self, name) for name in self._STATE]
        state[2] = [[table, pk, tid] for (table, pk), tid in self._last_writer.items()]
        state[3] = [[table, pk] for table, pk in sorted(self._deleted, key=repr)]
        return tuple(state)

    @classmethod
    def from_wire(cls, state) -> "Certifier":
        other = cls()
        for name, value in zip(cls._STATE, state, strict=True):
            setattr(other, name, value)
        other._last_writer = {(table, pk): tid for table, pk, tid in other._last_writer}
        other._deleted = {(table, pk) for table, pk in other._deleted}
        return other


class Prefix:
    """The contiguous prefix ``1..top`` of positive ints marked in any
    order; marks that are not the next one wait in ``beyond``."""

    def __init__(self, top: int = 0, beyond=()) -> None:
        self.top = top
        self.beyond = set(beyond)

    def mark(self, n: int) -> None:
        if n != self.top + 1:
            self.beyond.add(n)
            return
        self.top = n
        while self.top + 1 in self.beyond:
            self.top += 1
            self.beyond.discard(self.top)


class GcFloor:
    """The certifier-window GC floor of one replica: a tid at or below
    every certificate any replica of the group will still be asked to
    validate, which is what makes :meth:`Certifier.collect` sound.

    Every writeset a replica multicasts carries its send counter
    ``scount`` and its acked horizon ``acked`` (:meth:`stamp`): the
    contiguous prefix of its own sends it has seen delivered back.  A
    sender reads its certificate atomically with the multicast, so its
    certificates are monotone in ``scount``; the sends at or below a
    horizon are sequenced before the writeset carrying it, so every
    writeset from that sender still in flight has ``scount`` above the
    horizon and a certificate at least that of any delivered one at or
    below it.  Folding only those certificates per sender keeps the
    ``min`` over the current members a lower bound on every in-flight
    certificate.  Certificates above the horizon wait (bounded by the
    sender's in-flight traffic).  Staging per writeset and folding at
    the end of each delivery keeps the sequencer's in-batch reorder
    invisible.

    Durable replicas also cap the floor at the highest tid whose log
    record is cluster-stable, so a checkpointed window never outruns
    what the stability watermark has confirmed a rejoiner can rebuild.
    """

    #: deliveries between collect sweeps (the same delivery positions
    #: at every replica); a sweep is pure dict work with no sim events,
    #: so the cadence only amortises its cost
    every = 64

    def __init__(self, name: str, stability=None) -> None:
        self.name = name
        #: the cluster's StabilityTracker when the replica logs, else None
        self.stability = stability
        #: current membership, from delivered (totally ordered) views
        self.members: set[str] = set()
        #: (sender, cert, scount, acked) of this delivery's writesets
        self._stage: list[tuple[str, int, int, int]] = []
        #: sender -> delivered (scount, cert) above its acked horizon
        self._pending: dict[str, list[tuple[int, int]]] = {}
        #: sender -> highest acked horizon seen from it
        self._acked: dict[str, int] = {}
        #: sender -> max certificate delivered at or below its horizon
        self._floors: dict[str, int] = {}
        self._sends = 0
        self._own = Prefix()
        #: (log seq, tid) of logged passes not yet cluster-stable
        self._tid_by_seq: deque[tuple[int, int]] = deque()
        self._stable_tid = 0
        self._since = 0

    def stamp(self) -> tuple[int, int]:
        """``(scount, acked)`` for the next outgoing writeset."""
        self._sends += 1
        return self._sends, self._own.top

    def stage(self, payload, logged=None) -> None:
        """Stage a delivered writeset's ORIGINAL certificate (salvage may
        refresh the record's later) and, when ``logged`` (its log
        record) is given, its tid for the durable cap."""
        if payload.scount:
            self._stage.append(
                (payload.sender, payload.cert, payload.scount, payload.acked)
            )
            if payload.sender == self.name:
                self._own.mark(payload.scount)
        if logged is not None and self.stability is not None:
            self._tid_by_seq.append((logged.seq, logged.tid))

    def note_view(self, members) -> None:
        """Fold only over current members.  A crashed member's sequenced
        traffic was delivered before this view, and its unsequenced
        traffic died with it; a joiner (or a fresh incarnation, whose
        send counter restarts) pins the floor at 0 until its own
        writesets fold: GC pauses, decisions are unaffected."""
        previous, self.members = self.members, set(members)
        for sender in previous.symmetric_difference(self.members):
            self._pending.pop(sender, None)
            self._acked.pop(sender, None)
            self._floors.pop(sender, None)

    def end_delivery(self, certifier: Certifier) -> int:
        """Fold the delivery's staged certificates; every ``every``
        deliveries, collect ``certifier`` up to the floor.  Returns the
        number of keys swept."""
        if self._stage:
            self._fold()
        self._since += 1
        if self._since < self.every:
            return 0
        self._since = 0
        floor = self.floor()
        if floor <= certifier.floor:
            return 0
        return certifier.collect(floor)

    def _fold(self) -> None:
        for sender, cert, scount, acked in self._stage:
            self._pending.setdefault(sender, []).append((scount, cert))
            if acked > self._acked.get(sender, 0):
                self._acked[sender] = acked
        self._stage.clear()
        for sender, pending in self._pending.items():
            horizon = self._acked.get(sender, 0)
            if not pending or min(s for s, _c in pending) > horizon:
                continue
            floor = self._floors.get(sender, 0)
            keep = []
            for scount, cert in pending:
                if scount > horizon:
                    keep.append((scount, cert))
                elif cert > floor:
                    floor = cert
            keep.sort()
            self._pending[sender] = keep
            self._floors[sender] = floor

    def floor(self) -> int:
        """The tid below which no in-flight certificate can sit."""
        if not self.members:
            return 0
        floor = min(self._floors.get(m, 0) for m in self.members)
        if self.stability is not None:
            stable = self.stability.stable_seq()
            while self._tid_by_seq and self._tid_by_seq[0][0] <= stable:
                self._stable_tid = self._tid_by_seq.popleft()[1]
            floor = min(floor, self._stable_tid)
        return floor
