"""Structured protocol-milestone event log with bounded retention.

Counters say *how often*, the event log says *what happened, when, to
which transaction*: validation passes/aborts, view changes, recovery
state transfers, failover inquiries.  Events are plain dicts stamped
with simulated time, retained in a bounded ring (old milestones age
out), and exportable as JSONL — one JSON object per line, the schema
documented in DESIGN §"Observability".

Every event carries at least::

    {"t": <sim seconds>, "event": <kind>}

plus kind-specific fields (``replica``, ``gid``, ``outcome``, ...).
Per-kind totals survive ring eviction in :attr:`EventLog.counts`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Optional, Union

from repro.obs.metrics import sanitize


class EventLog:
    """Bounded, sim-time-stamped log of protocol milestones."""

    #: events kept in the ring; older ones age out
    capacity = 10_000

    def __init__(self, sim):
        self.sim = sim
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        #: per-kind totals over the whole run (eviction-proof)
        self.counts: dict[str, int] = {}
        self.emitted = 0

    def emit(self, event: str, **fields) -> dict:
        row = {"t": self.sim.now, "event": event, **fields}
        self._ring.append(row)
        self.counts[event] = self.counts.get(event, 0) + 1
        self.emitted += 1
        return row

    def __len__(self) -> int:
        return len(self._ring)

    def tail(self, n: Optional[int] = None) -> list[dict]:
        """The most recent ``n`` events (all retained ones by default)."""
        rows = list(self._ring)
        return rows if n is None else rows[-n:]

    def of_kind(self, event: str) -> list[dict]:
        return [row for row in self._ring if row["event"] == event]

    # -- export ----------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Retained events as JSONL (strict JSON: NaN sanitised first)."""
        return "\n".join(
            json.dumps(sanitize(row), allow_nan=False) for row in self._ring
        )

    def dump(self, target: Union[str, IO[str]]) -> int:
        """Write the retained events to a path or file object.

        Returns the number of events written.
        """
        text = self.to_jsonl()
        if hasattr(target, "write"):
            target.write(text + ("\n" if text else ""))
        else:
            with open(target, "w") as handle:
                handle.write(text + ("\n" if text else ""))
        return len(self._ring)
