"""Checkpoints: the one image of a replica's state at a log position.

A checkpoint captures, atomically, everything a replica needs to resume
from log position ``seq`` without replaying the records at or below it:
the committed row images at that point, the DDL already applied, the
certifier decision state and the in-doubt outcomes.  ``applied_beyond``
lists records *above* ``seq`` whose writesets are already installed (the
replica applies certified writesets out of log order when they don't
conflict), so replay after restore can skip re-installing them;
``cert_seq`` is the log tip at capture time — every record at or below
it has already gone through the certifier whose state the checkpoint
carries.

The same image is what a donor ships for a full-state recovery, a
cold-restart leveling or a reader's snapshot join: captured at its log
tip (0 without a log), with nothing applied beyond it.
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
    #: the certifier's decision state, ``Certifier.to_wire()``; a
    #: restore takes salvage from its own replica's config
    certifier_state: tuple
    outcomes: dict  # gid -> committed/aborted (in-doubt inquiries)
    #: approximate size: the JSON of ddl, rows, tid and outcomes
    nbytes: int

    @classmethod
    def capture(cls, *, seq: int, cert_seq: int, applied_beyond, csn: int,
                ddl, rows: dict, certifier, outcomes: dict) -> "Checkpoint":
        """Snapshot the inputs; ``certifier`` is a
        :class:`~repro.core.validation.Certifier`, and
        ``Certifier.from_wire(checkpoint.certifier_state)`` is the way
        back.

        The checkpoint takes ``rows`` as it is, without a copy: the
        caller hands over row dicts nothing else holds, such as a fresh
        ``Database.export_committed()``."""
        ddl = tuple(ddl)
        outcomes = dict(outcomes)
        nbytes = len(json.dumps({
            "ddl": list(ddl), "rows": rows,
            "tid": certifier.last_validated_tid, "outcomes": outcomes,
        }))
        return cls(
            seq=seq,
            cert_seq=cert_seq,
            applied_beyond=tuple(sorted(applied_beyond)),
            csn=csn,
            ddl=ddl,
            rows=rows,
            certifier_state=certifier.to_wire(),
            outcomes=outcomes,
            nbytes=nbytes,
        )

    @property
    def tid(self) -> int:
        """The captured certifier's last validated tid."""
        return self.certifier_state[1]  # Certifier.to_wire() order

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "cert_seq": self.cert_seq,
            "applied_beyond": list(self.applied_beyond),
            "csn": self.csn,
            "ddl": list(self.ddl),
            "rows": self.rows,
            "certifier": list(self.certifier_state),
            "outcomes": self.outcomes,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Checkpoint":
        if "cert_tid" in data:
            # written before images carried Certifier.to_wire(): a
            # flattened certifier that restores with validated = tid and
            # every other counter 0
            from repro.core.validation import Certifier  # repro.core imports us

            tid = data["cert_tid"]
            state = {
                **dict.fromkeys(Certifier._STATE, 0),
                "salvage": False, "last_validated_tid": tid, "validated": tid,
                "_last_writer": data["cert_last_writer"],
                "_deleted": data.get("cert_deleted", []),
                "floor": data.get("cert_floor", 0),
            }
            data = {**data, "certifier": [state[name] for name in Certifier._STATE]}
        return cls(
            seq=data["seq"],
            cert_seq=data["cert_seq"],
            applied_beyond=tuple(data["applied_beyond"]),
            csn=data["csn"],
            ddl=tuple(data["ddl"]),
            rows=data["rows"],
            certifier_state=tuple(data["certifier"]),
            outcomes=dict(data["outcomes"]),
            nbytes=data["nbytes"],
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
