"""Definition 1: SI-schedules.

An SI-schedule over committed transactions T (each with readset RS_i and
writeset WS_i) is a sequence of begin/commit events such that

  (i)  every transaction begins before it commits, and
  (ii) if (b_i < c_j < c_i) then WS_i ∩ WS_j = ∅ — i.e. no two
       *concurrent* transactions with overlapping writesets both commit.

The paper's running example (schedule "SE" = b1 b2 c1 b3 c3 c2 over
T1 = r(x) w(x), T2 = r(y) r(x) w(y), T3 = w(x)) is used in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, FrozenSet, Iterable

BEGIN = "b"
COMMIT = "c"


@dataclass(frozen=True)
class TxnSpec:
    """A committed transaction reduced to its read/writesets."""

    tid: str
    readset: FrozenSet[Any] = frozenset()
    writeset: FrozenSet[Any] = frozenset()


@dataclass(frozen=True)
class Violation:
    """Why a sequence is not an SI-schedule / not equivalent / not 1-copy."""

    rule: str
    detail: str
    #: the transactions it names (a ww pair sorted, or one gid)
    gids: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[{self.rule}] {self.detail}"


@dataclass
class Schedule:
    """A sequence of (event, tid) pairs over a set of transactions."""

    transactions: dict[str, TxnSpec]
    events: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def from_string(cls, text: str, transactions: Iterable[TxnSpec]) -> "Schedule":
        """Parse ``"b1 b2 c1"``-style shorthand (tokens are <b|c><tid>)."""
        txns = {t.tid: t for t in transactions}
        events = []
        for token in text.split():
            kind, tid = token[0], token[1:]
            if kind not in (BEGIN, COMMIT) or tid not in txns:
                raise ValueError(f"bad schedule token {token!r}")
            events.append((kind, tid))
        return cls(transactions=txns, events=events)

    @cached_property
    def _positions(self) -> dict[tuple[str, str], int]:
        # built on first use: ``events`` is not mutated once constructed
        positions: dict[tuple[str, str], int] = {}
        for index, event in enumerate(self.events):
            positions.setdefault(event, index)
        return positions

    def before(self, first: tuple[str, str], second: tuple[str, str]) -> bool:
        """True iff event ``first`` occurs before ``second``."""
        return self._positions[first] < self._positions[second]

    # -- Definition 1 ---------------------------------------------------------

    def violations(self) -> list[Violation]:
        """All Def. 1 violations (empty list == valid SI-schedule)."""
        problems: list[Violation] = []
        seen: dict[tuple[str, str], int] = {}
        for index, event in enumerate(self.events):
            if event in seen:
                problems.append(
                    Violation("structure", f"duplicate event {event}")
                )
            seen[event] = index
            if event[1] not in self.transactions:
                problems.append(
                    Violation("structure", f"event {event} for unknown txn")
                )
        for tid in self.transactions:
            has_b = (BEGIN, tid) in seen
            has_c = (COMMIT, tid) in seen
            if not (has_b and has_c):
                problems.append(
                    Violation("structure", f"txn {tid} missing begin or commit")
                )
            elif seen[(BEGIN, tid)] > seen[(COMMIT, tid)]:
                problems.append(
                    Violation("order", f"txn {tid} commits before it begins")
                )
        if problems:
            return problems
        # (ii): concurrent ww-conflicting transactions must not both
        # commit.  Per key it is enough to check each writer against the
        # writer that committed just before it on that key: if
        # b_i < c_j < c_i for any earlier writer j of the key, the writer
        # just before i also commits inside (b_i, c_i).
        last_writer: dict[Any, str] = {}
        clashes: dict[tuple[str, str], list] = {}
        for kind, tid in self.events:
            if kind != COMMIT:
                continue
            for key in self.transactions[tid].writeset:
                prev = last_writer.get(key)
                if prev is not None and seen[(BEGIN, tid)] < seen[(COMMIT, prev)]:
                    clashes.setdefault((prev, tid), []).append(key)
                last_writer[key] = tid
        for (prev, tid), keys in clashes.items():
            problems.append(
                Violation(
                    "si-ww",
                    f"concurrent ww-conflicting txns {prev},{tid} on {sorted(keys)}",
                )
            )
        return problems

    def is_si_schedule(self) -> bool:
        return not self.violations()

    # -- convenience ------------------------------------------------------------

    def reads_from_precedes(self, writer: str, reader: str) -> bool:
        """True iff c_writer < b_reader (reader sees writer's versions)."""
        return self.before((COMMIT, writer), (BEGIN, reader))

    def commit_order(self) -> list[str]:
        return [tid for kind, tid in self.events if kind == COMMIT]

    def __str__(self) -> str:
        return " ".join(f"{k}{t}" for k, t in self.events)
