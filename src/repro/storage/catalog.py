"""Schemas, tables, and secondary indexes.

Tables are dictionaries of primary key -> newest row version.  A stored
row is a tuple of its values in the schema's column order; a row crosses
the engine's boundary (a writeset's after-image, a client's result row,
a state export) as a dict of column name -> value, and
:class:`TableSchema` converts between the two.  Secondary indexes map a
column value to the set of primary keys that *ever* carried that value;
lookups post-filter by snapshot visibility, which keeps index
maintenance trivially correct under MVCC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import CatalogError, IntegrityError
from repro.storage.versions import Version

#: Supported column type names -> Python types accepted for the column;
#: the first is the type a stored value has.
COLUMN_TYPES: dict[str, tuple[type, ...]] = {
    "INT": (int,),
    "FLOAT": (float, int),
    "TEXT": (str,),
    "BOOL": (bool,),
}


@dataclass(frozen=True)
class ColumnDef:
    """One column of a table schema.

    ``references`` names a table whose primary key this column points
    at (a single-column FOREIGN KEY, NO ACTION semantics).
    """

    name: str
    type: str
    primary_key: bool = False
    not_null: bool = False
    references: Optional[str] = None

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise CatalogError(f"unknown column type {self.type!r}")

    def check(self, value: Any) -> Any:
        """Validate/coerce ``value`` for this column; returns the value."""
        if value is None:
            if self.not_null or self.primary_key:
                raise IntegrityError(f"column {self.name!r} is NOT NULL")
            return None
        if self.type == "BOOL":
            if not isinstance(value, bool):
                raise IntegrityError(f"column {self.name!r} expects BOOL, got {value!r}")
            return value
        # bool is an int subclass, but a number column refuses it
        if isinstance(value, bool) or not isinstance(value, COLUMN_TYPES[self.type]):
            raise IntegrityError(
                f"column {self.name!r} expects {self.type}, got {type(value).__name__}"
            )
        if self.type == "FLOAT" and isinstance(value, int):
            return float(value)
        return value


@dataclass(frozen=True)
class TableSchema:
    """A table definition with a single-column primary key.

    The derived fields are computed once here: the schema is immutable,
    and statement plans and every staged row read them.
    """

    name: str
    columns: tuple[ColumnDef, ...]
    pk_column: str = field(init=False, repr=False, compare=False)
    column_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: column name -> its position in a stored row (its keys are the
    #: schema's column names)
    positions: dict = field(init=False, repr=False, compare=False)
    #: the primary key's position in a stored row
    pk_position: int = field(init=False, repr=False, compare=False)
    #: (column, referenced table) pairs declared on this table
    foreign_keys: tuple[tuple[str, str], ...] = field(
        init=False, repr=False, compare=False
    )
    #: ``validate_row(values)``: check a row dict against the schema,
    #: filling missing columns with None; returns the stored row, a
    #: tuple in the schema's column order
    validate_row: Callable[[dict], tuple] = field(
        init=False, repr=False, compare=False
    )
    #: ``row_of(image)``: the stored row of a full after-image dict that
    #: a staged write already validated (commit, remote apply, replay)
    row_of: Callable[[dict], tuple] = field(init=False, repr=False, compare=False)
    #: ``image(row)``: the dict of a stored row, column name -> value in
    #: schema order (a staged after-image, a result row, an export)
    image: Callable[[tuple], dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(c.name for c in self.columns)
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column in table {self.name!r}")
        pks = [c for c in self.columns if c.primary_key]
        if len(pks) != 1:
            raise CatalogError(
                f"table {self.name!r} needs exactly one PRIMARY KEY column"
            )
        positions = {name: i for i, name in enumerate(names)}
        validate_row, row_of, image = _row_kernels(self.name, self.columns, positions)
        derived = {
            "pk_column": pks[0].name,
            "column_names": names,
            "positions": positions,
            "pk_position": positions[pks[0].name],
            "foreign_keys": tuple(
                (c.name, c.references) for c in self.columns if c.references
            ),
            "validate_row": validate_row,
            "row_of": row_of,
            "image": image,
        }
        for attr, value in derived.items():
            object.__setattr__(self, attr, value)

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")


def _row_kernels(table: str, columns: tuple[ColumnDef, ...], positions: dict):
    """``validate_row``, ``row_of`` and ``image`` of one schema, built
    once: every staged or installed row goes through the first, every
    committed after-image through the second, and every row that leaves
    the engine as a dict through the third.

    A value of exactly its column's type passes ``validate_row`` as is —
    ``ColumnDef.check`` would return it unchanged — and anything else
    (None, a subclass, a coercion, an error) goes through ``check``."""
    plan = tuple((c.name, COLUMN_TYPES[c.type][0], c.check) for c in columns)
    names = tuple(positions)
    known = frozenset(names)

    def validate_row(values: dict[str, Any]) -> tuple:
        if not known.issuperset(values):
            unknown = values.keys() - known
            raise CatalogError(
                f"unknown column(s) {sorted(unknown)} for table {table!r}"
            )
        row = []
        append = row.append
        get = values.get
        for name, exact, check in plan:
            value = get(name)
            append(value if type(value) is exact else check(value))
        return tuple(row)

    get = itemgetter(*names)
    # one name makes the getter return the bare value, not a 1-tuple
    row_of = get if len(names) > 1 else lambda image: (get(image),)

    def image(row: tuple) -> dict[str, Any]:
        return dict(zip(names, row))

    return validate_row, row_of, image


class Table:
    """Versioned rows plus secondary indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: pk -> newest committed version (older ones hang off ``prev``)
        self.rows: dict[Any, Version] = {}
        #: column -> value -> set of pks that ever held that value
        self.indexes: dict[str, dict[Any, set[Any]]] = {}

    @property
    def name(self) -> str:
        return self.schema.name

    def create_index(self, column: str) -> None:
        self.schema.column(column)  # existence check
        if column in self.indexes:
            raise CatalogError(
                f"index on {self.name}.{column} already exists"
            )
        position = self.schema.positions[column]
        index: dict[Any, set[Any]] = {}
        for pk, head in self.rows.items():
            for version in head:
                if version.values is not None:
                    index.setdefault(version.values[position], set()).add(pk)
        self.indexes[column] = index

    def install(self, pk: Any, version: Version) -> None:
        """Make ``version`` the newest of row ``pk`` and index its values."""
        head = self.rows.get(pk)
        if head is not None:
            if version.csn <= head.csn:
                raise AssertionError(
                    f"non-monotonic install: {version.csn} after {head.csn}"
                )
            version.prev = head
        self.rows[pk] = version
        if version.values is not None and self.indexes:
            self.index_insert(version.values)

    def prune(self, pk: Any, snapshots: Sequence[int]) -> None:
        """Keep row ``pk``'s newest version and the one each of
        ``snapshots`` (descending) reads; unlink every other version.

        With no snapshot left to read it, a row whose newest version is
        a tombstone leaves the table.  While any snapshot predates the
        tombstone it stays: a concurrent writer's first-updater check
        must still see the delete."""
        head = self.rows[pk]
        if not snapshots and head.values is None:
            del self.rows[pk]
            return
        kept = head
        for snapshot in snapshots:
            if snapshot >= kept.csn:
                continue  # reads ``kept``, as a newer snapshot does
            version = kept.prev
            while version is not None and version.csn > snapshot:
                version = version.prev
            kept.prev = version
            if version is None:
                return
            kept = version
        kept.prev = None

    def index_insert(self, values: tuple) -> None:
        """Register a new committed version's row in all indexes."""
        positions = self.schema.positions
        pk = values[self.schema.pk_position]
        for column, index in self.indexes.items():
            index.setdefault(values[positions[column]], set()).add(pk)

    def index_candidates(self, column: str, value: Any) -> Optional[Iterable[Any]]:
        """Pks that may match ``column == value``, or None if no index."""
        index = self.indexes.get(column)
        if index is None:
            return None
        return index.get(value, set())


class Catalog:
    """All tables of one database replica."""

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}
        #: referenced table -> [(child table, child column)] reverse map
        self.referencers: dict[str, list[tuple[str, str]]] = {}

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        for column, parent in schema.foreign_keys:
            if parent not in self.tables:
                raise CatalogError(
                    f"{schema.name}.{column} REFERENCES unknown table {parent!r}"
                )
        table = Table(schema)
        self.tables[schema.name] = table
        for column, parent in schema.foreign_keys:
            self.referencers.setdefault(parent, []).append((schema.name, column))
        return table

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise CatalogError(f"no such table {name!r}")
        return table

    def clone_empty(self) -> "Catalog":
        """Same schemas and indexes, no data (for replica bootstrap)."""
        clone = Catalog()
        for table in self.tables.values():
            new = clone.create_table(table.schema)
            for column in table.indexes:
                new.create_index(column)
        return clone
