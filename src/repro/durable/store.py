"""Durability configuration and the per-cluster durability store.

The :class:`DurabilityStore` owns one :class:`ReplicaDurability` (log +
checkpoint store) per replica *name*.  Critically it outlives replica
incarnations — ``cluster.crash()`` destroys the middleware object but
not its durable state — and, held by the caller, outlives the cluster
itself, which is what makes memory-mode cold restart testable.  With
``log_dir`` set, logs and checkpoints are also persisted as files and a
fresh store pointed at the same directory reloads them (true cold
restart from disk).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.durable.checkpoint import CheckpointStore
from repro.durable.log import WritesetLog


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs for the durability subsystem (``ClusterConfig.durability``)."""

    #: directory for on-disk logs/checkpoints; None = in-memory durability
    log_dir: Optional[Union[str, Path]] = None
    #: simulated seconds between automatic checkpoints, each followed by
    #: a log truncation sweep (None = never: the log keeps every record)
    checkpoint_interval: Optional[float] = None
    #: records per log segment (truncation granularity)
    segment_records: int = 256


class ReplicaDurability:
    """One replica's durable state: its writeset log and checkpoints."""

    def __init__(self, name: str, config: DurabilityConfig):
        base = Path(config.log_dir) if config.log_dir is not None else None
        self.name = name
        self.config = config
        self.log = WritesetLog(
            name,
            segment_records=config.segment_records,
            directory=(base / name / "log") if base is not None else None,
        )
        self.checkpoints = CheckpointStore(
            name,
            directory=(base / name / "ckpt") if base is not None else None,
        )


class DurabilityStore:
    """All replicas' durable state, keyed by replica name."""

    def __init__(self, config: Optional[DurabilityConfig] = None):
        self.config = config or DurabilityConfig()
        self._replicas: dict[str, ReplicaDurability] = {}

    def replica(self, name: str) -> ReplicaDurability:
        if name not in self._replicas:
            self._replicas[name] = ReplicaDurability(name, self.config)
        return self._replicas[name]

    def names(self) -> list[str]:
        """Replica names with durable state, including on-disk ones."""
        names = set(self._replicas)
        if self.config.log_dir is not None:
            base = Path(self.config.log_dir)
            if base.is_dir():
                names.update(p.name for p in base.iterdir() if p.is_dir())
        return sorted(names)
