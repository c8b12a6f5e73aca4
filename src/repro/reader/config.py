"""Knobs for the read-scaling tier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ReaderConfig:
    """Configuration shared by the lazy read replicas of one cluster.

    The tier's contract is *bounded staleness*: a reader advertises its
    apply watermark and, when ``staleness_bound`` is set, refuses to
    start snapshots (and declines discovery) while it lags the certified
    tip by more than that many transactions.  The online
    :class:`~repro.obs.monitor.OneCopyMonitor` holds a reader to its
    ``loss_grace`` like any watched replica: a certified update still
    missing that long after its first commit is a ``lost-writeset``
    violation.
    """

    #: max certified-transactions lag a reader may serve snapshots at;
    #: None = unbounded (pure eventual catch-up)
    staleness_bound: Optional[int] = None
    #: certified-feed fan-out latency, middleware -> reader (one hop)
    fanout_delay: float = 0.0005
    #: extra seconds charged per applied writeset — a fault-injection /
    #: calibration knob to make a reader lag deliberately
    apply_delay: float = 0.0
    #: session cap per reader (declines discovery when full); None = no cap
    max_sessions: Optional[int] = None
    #: admission cap: concurrent read transactions per reader before the
    #: driver queues (never aborts) further ones; None = uncapped
    max_read_inflight: Optional[int] = None
    #: admission cap for reads falling back to *full* replicas (no
    #: readers available / baseline deployments): protects the update
    #: path from read saturation; None = uncapped
    writer_read_inflight: Optional[int] = None
