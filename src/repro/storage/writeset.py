"""Writesets: the changed tuples a transaction produced.

"Writesets contain the changed objects and their identifiers" (§3).  The
paper's PostgreSQL extension intercepts execution after each tuple update
and exports two methods: retrieve (pre-commit) and apply.  Here the engine
stages writes per-transaction; :meth:`~repro.storage.engine.Database.get_writeset`
marshals them into this structure and
:meth:`~repro.storage.engine.Database.apply_writeset` replays the after
images at a remote replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, FrozenSet, Iterator, Optional

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"


@dataclass(frozen=True)
class WriteOp:
    """One changed tuple: identifier plus after image."""

    table: str
    pk: Any
    op: str  # insert | update | delete
    values: Optional[dict[str, Any]]  # after image; None for delete

    @property
    def key(self) -> tuple[str, Any]:
        return (self.table, self.pk)


_op_fields = attrgetter("table", "pk", "op", "values")


def _op_from_fields(fields: tuple, _new=object.__new__) -> WriteOp:
    """``WriteOp(*fields)``, filling the instance dict directly: half the
    cost of the frozen ``__init__``, which matters for a writeset decoded
    on every replica."""
    table, pk, kind, values = fields
    op = _new(WriteOp)
    attrs = op.__dict__
    attrs["table"] = table
    attrs["pk"] = pk
    attrs["op"] = kind
    attrs["values"] = values
    return op


class WriteSet:
    """An ordered collection of :class:`WriteOp` with fast conflict tests."""

    __slots__ = ("ops", "_keys")

    def __init__(self, ops: Optional[list[WriteOp]] = None):
        self.ops: list[WriteOp] = ops or []
        self._keys: Optional[FrozenSet[tuple[str, Any]]] = None

    def add(self, op: WriteOp) -> None:
        self.ops.append(op)
        self._keys = None

    @property
    def keys(self) -> FrozenSet[tuple[str, Any]]:
        """The set of (table, pk) identifiers this writeset touches."""
        if self._keys is None:
            self._keys = frozenset(op.key for op in self.ops)
        return self._keys

    def conflicts_with(self, other: "WriteSet") -> bool:
        """True iff the writesets overlap on at least one tuple (W/W)."""
        mine, theirs = self.keys, other.keys
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        return any(key in theirs for key in mine)

    def tables(self) -> FrozenSet[str]:
        return frozenset(op.table for op in self.ops)

    def to_wire(self) -> tuple:
        """The ops as ``(table, pk, op, values)`` tuples (the wire codec's
        form of a writeset)."""
        return tuple(map(_op_fields, self.ops))

    @classmethod
    def from_wire(cls, ops: tuple) -> "WriteSet":
        return cls(list(map(_op_from_fields, ops)))

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __iter__(self) -> Iterator[WriteOp]:
        return iter(self.ops)

    def __repr__(self) -> str:
        return f"<WriteSet {len(self.ops)} ops on {sorted(self.tables())}>"
