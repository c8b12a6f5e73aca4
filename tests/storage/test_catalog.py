"""Unit tests for schemas, tables, and secondary indexes."""

import pytest

from repro.errors import CatalogError, IntegrityError
from repro.storage.catalog import Catalog, ColumnDef, Table, TableSchema
from repro.storage.versions import Version


def schema():
    return TableSchema(
        "t",
        (
            ColumnDef("id", "INT", primary_key=True),
            ColumnDef("name", "TEXT", not_null=True),
            ColumnDef("price", "FLOAT"),
            ColumnDef("active", "BOOL"),
        ),
    )


def test_schema_requires_exactly_one_pk():
    with pytest.raises(CatalogError):
        TableSchema("t", (ColumnDef("a", "INT"),))
    with pytest.raises(CatalogError):
        TableSchema(
            "t",
            (
                ColumnDef("a", "INT", primary_key=True),
                ColumnDef("b", "INT", primary_key=True),
            ),
        )


def test_schema_rejects_duplicate_columns():
    with pytest.raises(CatalogError):
        TableSchema(
            "t",
            (ColumnDef("a", "INT", primary_key=True), ColumnDef("a", "TEXT")),
        )


def test_unknown_column_type_rejected():
    with pytest.raises(CatalogError):
        ColumnDef("a", "BLOB")


def test_validate_row_fills_missing_with_null():
    row = schema().validate_row({"id": 1, "name": "x"})
    assert row == (1, "x", None, None)  # the stored row: schema order
    assert schema().image(row) == {"id": 1, "name": "x", "price": None, "active": None}
    assert schema().row_of(schema().image(row)) == row


def test_a_one_column_row_is_a_one_tuple():
    s = TableSchema("t", (ColumnDef("id", "INT", primary_key=True),))
    row = s.validate_row({"id": 4})
    assert row == (4,) and s.row_of({"id": 4}) == (4,)
    assert s.image(row) == {"id": 4}


def test_validate_row_rejects_unknown_column():
    with pytest.raises(CatalogError, match="unknown column"):
        schema().validate_row({"id": 1, "name": "x", "bogus": 1})


def test_not_null_enforced():
    with pytest.raises(IntegrityError):
        schema().validate_row({"id": 1, "name": None})
    with pytest.raises(IntegrityError):  # pk implicitly NOT NULL
        schema().validate_row({"id": None, "name": "x"})


def test_type_checks_and_coercion():
    s = schema()
    row = s.validate_row({"id": 1, "name": "x", "price": 3})
    assert isinstance(row[s.positions["price"]], float)
    with pytest.raises(IntegrityError):
        s.validate_row({"id": "nope", "name": "x"})
    with pytest.raises(IntegrityError):
        s.validate_row({"id": 1, "name": 5})
    with pytest.raises(IntegrityError):  # bool is not INT
        s.validate_row({"id": True, "name": "x"})
    with pytest.raises(IntegrityError):  # int is not BOOL
        s.validate_row({"id": 1, "name": "x", "active": 1})


def test_float_column_refuses_bool():
    """Regression: FLOAT stored a bool unchanged, while INT refused it."""
    with pytest.raises(IntegrityError, match="column 'x' expects FLOAT, got bool"):
        ColumnDef("x", "FLOAT").check(True)
    with pytest.raises(IntegrityError, match="column 'price' expects FLOAT, got bool"):
        schema().validate_row({"id": 1, "name": "x", "price": False})
    assert ColumnDef("x", "FLOAT").check(2) == 2.0


def test_catalog_create_and_lookup():
    catalog = Catalog()
    catalog.create_table(schema())
    assert catalog.table("t").name == "t"
    with pytest.raises(CatalogError):
        catalog.create_table(schema())
    with pytest.raises(CatalogError):
        catalog.table("missing")


def test_index_tracks_all_versions_and_backfills():
    table = Table(schema())
    table.install(1, Version(1, (1, "old", None, None)))
    table.install(1, Version(2, (1, "new", None, None)))
    table.create_index("name")
    assert table.index_candidates("name", "old") == {1}
    assert table.index_candidates("name", "new") == {1}
    assert table.index_candidates("name", "none") == set()
    assert table.index_candidates("price", 1.0) is None  # no index


def test_duplicate_index_rejected():
    table = Table(schema())
    table.create_index("name")
    with pytest.raises(CatalogError):
        table.create_index("name")


def test_index_on_unknown_column_rejected():
    table = Table(schema())
    with pytest.raises(CatalogError):
        table.create_index("missing")


def test_clone_empty_copies_schema_and_indexes_not_data():
    catalog = Catalog()
    table = catalog.create_table(schema())
    table.create_index("name")
    table.install(1, Version(1, (1, "x", None, None)))
    clone = catalog.clone_empty()
    cloned = clone.table("t")
    assert cloned.schema == table.schema
    assert "name" in cloned.indexes
    assert cloned.rows == {}
