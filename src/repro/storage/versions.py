"""Row versions and snapshot visibility.

Commit order on one replica is totalised by a **commit sequence number**
(csn).  A snapshot is just the csn observed at transaction begin: version
``v`` is visible to snapshot ``s`` iff ``v.csn <= s``.  A version's
``values`` is the row as a tuple in its schema's column order
(:class:`~repro.storage.catalog.TableSchema` converts to and from the
dicts outside the engine); ``None`` is a tombstone (the row was deleted
by that version).  A tuple cannot be assigned into, so a row that
readers share cannot change under them.

A row is its newest committed :class:`Version`; each version links to
the next-older one through ``prev``, so visibility walks newest-first.
The links point only backwards in time and form no cycles: dropping a
``prev`` frees everything older by reference counting alone.
"""

from __future__ import annotations

from typing import Iterator, Optional


class Version:
    """One committed version of a row, linked to the one it replaced."""

    __slots__ = ("csn", "values", "prev")

    def __init__(
        self,
        csn: int,
        values: Optional[tuple],  # None => deleted
        prev: Optional["Version"] = None,
    ):
        self.csn = csn
        self.values = values
        self.prev = prev

    @property
    def is_delete(self) -> bool:
        return self.values is None

    def visible(self, snapshot_csn: int) -> Optional["Version"]:
        """The newest version with csn <= snapshot, from this one back;
        None if the row was unborn at that snapshot."""
        version: Optional[Version] = self
        while version is not None and version.csn > snapshot_csn:
            version = version.prev
        return version

    def visible_values(self, snapshot_csn: int) -> Optional[tuple]:
        """Row values under the snapshot; None if absent or deleted."""
        version = self.visible(snapshot_csn)
        return None if version is None else version.values

    def __iter__(self) -> Iterator["Version"]:
        """This version and every older one still kept, newest first."""
        version: Optional[Version] = self
        while version is not None:
            yield version
            version = version.prev
