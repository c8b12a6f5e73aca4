"""Row version chains and snapshot visibility.

Commit order on one replica is totalised by a **commit sequence number**
(csn).  A snapshot is just the csn observed at transaction begin: version
``v`` is visible to snapshot ``s`` iff ``v.csn <= s``.  A ``None`` values
payload is a tombstone (the row was deleted by that version).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a row."""

    csn: int
    values: Optional[dict[str, Any]]  # None => deleted
    writer: str = ""  # global transaction id of the creator (diagnostics)

    @property
    def is_delete(self) -> bool:
        return self.values is None


class VersionChain:
    """Committed versions of one row, ascending csn order."""

    __slots__ = ("versions",)

    def __init__(self) -> None:
        self.versions: list[Version] = []

    def install(self, version: Version) -> None:
        if self.versions and version.csn <= self.versions[-1].csn:
            raise AssertionError(
                f"non-monotonic install: {version.csn} after {self.versions[-1].csn}"
            )
        self.versions.append(version)

    def visible(self, snapshot_csn: int) -> Optional[Version]:
        """Latest version with csn <= snapshot, or None if row unborn.

        Linear scan from the tail: chains are short and recent versions
        are the common case.
        """
        for version in reversed(self.versions):
            if version.csn <= snapshot_csn:
                return version
        return None

    def latest(self) -> Optional[Version]:
        """The most recently committed version (any snapshot)."""
        return self.versions[-1] if self.versions else None

    def visible_values(self, snapshot_csn: int) -> Optional[dict[str, Any]]:
        """Row values under the snapshot; None if absent or deleted."""
        version = self.visible(snapshot_csn)
        if version is None or version.is_delete:
            return None
        return version.values

    def __len__(self) -> int:
        return len(self.versions)
