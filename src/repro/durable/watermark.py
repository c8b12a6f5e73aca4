"""The cluster-wide stability watermark.

A log record is *stable* once every member has it durable: only then may
any replica garbage-collect it, because a rejoiner may need to fetch its
delta from **any** donor.  Each member piggybacks its durable log
sequence on outgoing GCS traffic (no extra messages); the tracker keeps
the per-member maxima and exposes their minimum.

Crashed members are the interesting case.  Under the ``conservative``
policy, the one a deployment runs, a crashed member's last known ack
*pins* the watermark — the records above it are exactly what the member
will ask for when it rejoins, so survivors must retain them.  ``aggressive``
drops the member from the minimum (reclaiming space immediately) and
relies on checkpoints to serve rejoiners whose delta was truncated away;
only tests select it, by setting :attr:`StabilityTracker.policy`.
A log that must keep every record takes no checkpoints: truncation runs
only right after one.
"""

from __future__ import annotations

from typing import ClassVar

CONSERVATIVE = "conservative"
AGGRESSIVE = "aggressive"

POLICIES = (CONSERVATIVE, AGGRESSIVE)


class StabilityTracker:
    """Min-durable-seq watermark over the members of one GCS group."""

    #: what a crash does to the member's ack (see the module docstring);
    #: a class constant that tests override with ``monkeypatch``
    policy: ClassVar[str] = CONSERVATIVE

    def __init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"bad truncation policy {self.policy!r}")
        #: live members' highest acked durable seq
        self.acks: dict[str, int] = {}
        #: crashed members' last ack (conservative policy only)
        self.pinned: dict[str, int] = {}
        self.ack_count = 0

    def register(self, member: str, seq: int = 0) -> None:
        """A member (re)joined; its pin, if any, is superseded."""
        self.pinned.pop(member, None)
        self.acks[member] = max(self.acks.get(member, 0), seq)

    def ack(self, member: str, seq: int) -> None:
        if member not in self.acks:
            return  # unregistered (e.g. already crashed): ignore
        if seq > self.acks[member]:
            self.acks[member] = seq
            self.ack_count += 1

    def crash(self, member: str) -> None:
        last = self.acks.pop(member, None)
        if last is not None and self.policy == CONSERVATIVE:
            self.pinned[member] = last

    def stable_seq(self) -> int:
        """Highest seq safe to truncate (0 when unknown)."""
        floors = list(self.acks.values()) + list(self.pinned.values())
        return min(floors) if floors else 0
