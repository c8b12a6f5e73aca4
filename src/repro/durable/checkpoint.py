"""Checkpoints: storage-engine snapshots that bound log replay.

A checkpoint captures, atomically, everything a replica needs to resume
from log position ``seq`` without replaying the records at or below it:
the committed row images at that point, the DDL already applied, and the
certifier decision state.  ``applied_beyond`` lists records *above*
``seq`` whose writesets are already installed (the replica applies
certified writesets out of log order when they don't conflict), so
replay after restore can skip re-installing them; ``cert_seq`` is the
log tip at capture time — every record at or below it has already gone
through the certifier whose state the checkpoint carries.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.durable.log import sync_directory


@dataclass(frozen=True)
class Checkpoint:
    """An atomic snapshot of one replica at applied-log-prefix ``seq``."""

    seq: int  # contiguous applied prefix of the log
    cert_seq: int  # log tip at capture: records <= this are certified
    applied_beyond: tuple  # seqs > seq already installed (out of order)
    csn: int  # storage engine commit sequence number
    ddl: tuple  # CREATE statements applied, in order
    rows: dict  # table -> list of latest committed row dicts
    cert_tid: int  # certifier.last_validated_tid
    cert_last_writer: dict  # (table, pk) -> tid
    outcomes: dict  # gid -> committed/aborted (in-doubt inquiries)
    nbytes: int
    #: certifier tombstones ((table, pk) whose last certified write was a
    #: DELETE) — restored so future salvage decisions stay deterministic
    #: across the checkpoint boundary
    cert_deleted: tuple = ()
    #: certifier window-GC truncation point at capture:
    #: ``cert_last_writer`` carries no entries with tid <= this, and a
    #: restore must carry it so the rebuilt certifier's conservative
    #: floor guard matches the capturing replica's
    cert_floor: int = 0

    @classmethod
    def capture(cls, *, seq: int, cert_seq: int, applied_beyond, csn: int,
                ddl, rows: dict, certifier, outcomes: dict) -> "Checkpoint":
        """Snapshot the inputs; ``certifier`` is a
        :class:`~repro.core.validation.Certifier`, and :meth:`certifier`
        is the way back."""
        rows = {table: [dict(r) for r in rs] for table, rs in rows.items()}
        nbytes = len(json.dumps({
            "seq": seq, "csn": csn, "ddl": list(ddl),
            "rows": rows, "tid": certifier.last_validated_tid,
        }))
        return cls(
            seq=seq,
            cert_seq=cert_seq,
            applied_beyond=tuple(sorted(applied_beyond)),
            csn=csn,
            ddl=tuple(ddl),
            rows=rows,
            cert_tid=certifier.last_validated_tid,
            cert_last_writer=dict(certifier.last_writers),
            outcomes=dict(outcomes),
            nbytes=nbytes,
            cert_deleted=tuple(sorted(certifier.tombstones, key=repr)),
            cert_floor=certifier.floor,
        )

    def certifier(self, salvage: bool):
        """A fresh certifier in the decision state captured here."""
        # repro.core imports this module: import on use
        from repro.core.validation import Certifier

        return Certifier.resume(
            salvage, self.cert_tid, self.cert_last_writer,
            self.cert_deleted, self.cert_floor,
        )

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "cert_seq": self.cert_seq,
            "applied_beyond": list(self.applied_beyond),
            "csn": self.csn,
            "ddl": list(self.ddl),
            "rows": self.rows,
            "cert_tid": self.cert_tid,
            # (table, pk) tuple keys flattened for JSON
            "cert_last_writer": [
                [table, pk, tid]
                for (table, pk), tid in self.cert_last_writer.items()
            ],
            "outcomes": self.outcomes,
            "nbytes": self.nbytes,
            "cert_deleted": [[table, pk] for table, pk in self.cert_deleted],
            "cert_floor": self.cert_floor,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Checkpoint":
        return cls(
            seq=data["seq"],
            cert_seq=data["cert_seq"],
            applied_beyond=tuple(data["applied_beyond"]),
            csn=data["csn"],
            ddl=tuple(data["ddl"]),
            rows=data["rows"],
            cert_tid=data["cert_tid"],
            cert_last_writer={
                (table, pk): tid
                for table, pk, tid in data["cert_last_writer"]
            },
            outcomes=dict(data["outcomes"]),
            nbytes=data["nbytes"],
            cert_deleted=tuple(
                (table, pk) for table, pk in data.get("cert_deleted", ())
            ),
            cert_floor=data.get("cert_floor", 0),
        )


class CheckpointStore:
    """Retains the last ``keep`` checkpoints for one replica name.

    Like the log, the store outlives replica incarnations (in-memory) and
    optionally persists each checkpoint as ``ckpt-<seq>.json`` on disk so
    cold restart can start from the newest one instead of sequence 1.
    A file is written under a temporary name, synced, then renamed into
    place.  A file that still fails to load (torn or corrupt) is skipped
    and listed in ``unreadable``; the store falls back to the older
    checkpoints it keeps.
    """

    def __init__(self, name: str, keep: int = 2,
                 directory: Optional[Path] = None):
        self.name = name
        self.keep = max(1, keep)
        self.directory = Path(directory) if directory is not None else None
        self.checkpoints: list[Checkpoint] = []
        self.saved = 0
        self.unreadable: list[Path] = []
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            for path in sorted(self.directory.glob("ckpt-*.json")):
                try:
                    checkpoint = Checkpoint.from_json(json.loads(path.read_text()))
                except (OSError, ValueError, KeyError, TypeError):
                    self.unreadable.append(path)
                    continue
                self.checkpoints.append(checkpoint)
            self.checkpoints.sort(key=lambda cp: cp.seq)

    def save(self, checkpoint: Checkpoint) -> None:
        if self.checkpoints and checkpoint.seq <= self.checkpoints[-1].seq:
            return  # no progress since the last one
        if self.directory is not None:
            self._write(checkpoint)
        self.checkpoints.append(checkpoint)
        self.saved += 1
        while len(self.checkpoints) > self.keep:
            old = self.checkpoints.pop(0)
            if self.directory is not None:
                try:
                    (self.directory / f"ckpt-{old.seq:08d}.json").unlink()
                except FileNotFoundError:
                    pass

    def _write(self, checkpoint: Checkpoint) -> None:
        path = self.directory / f"ckpt-{checkpoint.seq:08d}.json"
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "w") as fh:
            fh.write(json.dumps(checkpoint.to_json()))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
        sync_directory(self.directory)

    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None
