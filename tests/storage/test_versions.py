"""Unit tests for row versions and snapshot visibility."""

import pytest

from repro.storage.catalog import ColumnDef, Table, TableSchema
from repro.storage.versions import Version


def table_with(*specs):
    """A one-row table whose row 1 got the ``(csn, values)`` versions
    in order; returns the table."""
    table = Table(TableSchema("t", (ColumnDef("v", "TEXT", primary_key=True),)))
    for csn, values in specs:
        table.install(1, Version(csn, values))
    return table


def head_with(*specs):
    return table_with(*specs).rows[1]


def test_empty_chain_invisible():
    assert table_with().rows.get(1) is None
    unborn = head_with((5, ("a",)))
    assert unborn.visible(4) is None
    assert unborn.visible_values(4) is None


def test_visibility_respects_snapshot():
    head = head_with((1, ("a",)), (5, ("b",)), (9, ("c",)))
    assert head.visible_values(0) is None
    assert head.visible_values(1) == ("a",)
    assert head.visible_values(4) == ("a",)
    assert head.visible_values(5) == ("b",)
    assert head.visible_values(8) == ("b",)
    assert head.visible_values(9) == ("c",)
    assert head.visible_values(1000) == ("c",)


def test_tombstone_hides_row():
    head = head_with((1, ("a",)), (3, None))
    assert head.visible_values(2) == ("a",)
    assert head.visible_values(3) is None
    assert head.visible(3).is_delete


def test_reinsert_after_delete():
    head = head_with((1, ("a",)), (3, None), (7, ("b",)))
    assert head.visible_values(3) is None
    assert head.visible_values(7) == ("b",)


def test_latest_ignores_snapshot():
    head = head_with((1, ("a",)), (5, ("b",)))
    assert head.csn == 5
    assert head.prev.csn == 1


def test_non_monotonic_install_rejected():
    table = table_with((5, ("a",)))
    with pytest.raises(AssertionError):
        table.install(1, Version(5, ("b",)))
    with pytest.raises(AssertionError):
        table.install(1, Version(3, ("b",)))
    assert [version.csn for version in table.rows[1]] == [5]


def test_len_counts_versions():
    head = head_with((1, ("a",)), (2, None), (3, ("c",)))
    assert [version.csn for version in head] == [3, 2, 1]
