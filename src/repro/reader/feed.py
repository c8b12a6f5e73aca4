"""The certified writeset stream the read tier subscribes to.

Every full replica certifies the same writesets in the same total
delivery order and assigns the same certification tids, so each one can
publish the certified stream independently: an item's seq is the
total-order seq of the delivery that carried it, the feed keeps the
**first** publish of each seq and drops the (identical) duplicates from
the other replicas.  Fan-out to subscriber queues pays one constant
``fanout_delay`` hop, scheduled with a *strong* timer so running the
simulation to quiescence always drains the read tier before an audit.

Only replicated items are published (certified writeset passes and
replicated DDL), so seqs are sparse.  Genesis schema/bulk-load never
travels on the feed — a reader gets it directly at bootstrap — and
neither does durable-log *replay* (the survivors already published
those items).  The feed keeps only its join window: the items above the
lowest live full replica's position, the lowest a reader can join from.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.durable.log import WS, LogRecord
from repro.sim import Simulator
from repro.sim.sync import Queue


class CertifiedFeed:
    """Deduplicated, order-preserving pub/sub over the certified stream.

    Items are :class:`~repro.durable.log.LogRecord` objects whose ``seq``
    is the delivery's total-order seq: a ``ws`` record for a certified
    writeset, a ``ddl`` record for replicated DDL.  They are built with
    the plain constructor, so no JSON text is encoded for them.
    ``floor()`` is the lowest position a reader can still join from.
    """

    def __init__(
        self, sim: Simulator, floor: Callable[[], int], fanout_delay: float = 0.0005
    ):
        self.sim = sim
        self.floor = floor
        self.fanout_delay = fanout_delay
        #: highest seq accepted (first-publisher-wins dedup cursor)
        self.tip_seq = 0
        #: certification tid of the newest accepted writeset — what a
        #: reader's lag is measured against
        self.tip_tid = 0
        #: accepted items above ``floor()``, ascending seq (backfill)
        self.items: deque[LogRecord] = deque()
        self._subscribers: dict[str, Queue] = {}
        self.published = 0
        self.duplicates = 0

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def publish(self, item: LogRecord) -> bool:
        """Offer one certified item; returns True if this publish won.

        Publishers emit in increasing seq order, so anything at or below
        the tip is a duplicate from a slower replica.  Every call,
        duplicates included, then drops the items at or below
        ``floor()``: once the slowest replica published one, no join can
        ask for it.
        """
        won = item.seq > self.tip_seq
        if won:
            self.tip_seq = item.seq
            if item.kind == WS:
                self.tip_tid = item.tid
            self.items.append(item)
            self.published += 1
            for queue in self._subscribers.values():
                self._deliver(queue, item)
        else:
            self.duplicates += 1
        floor, items = self.floor(), self.items
        while items and items[0].seq <= floor:
            items.popleft()
        return won

    def _deliver(self, queue: Queue, item: LogRecord) -> None:
        if self.fanout_delay > 0:
            # strong timer: a pending fan-out keeps the simulation alive,
            # so sim.run() to quiescence drains the read tier
            self.sim.call_at(
                self.sim.now + self.fanout_delay,
                lambda q=queue, i=item: q.put(i),
            )
        else:
            queue.put(item)

    def subscribe(self, name: str, from_seq: int = 0) -> Queue:
        """Register a subscriber and backfill every accepted item after
        ``from_seq`` (its bootstrap position) into a fresh queue.

        The backfill closes the race between a mid-run join's donor
        capture and publishes already in flight: the donor's snapshot
        covers seqs <= ``from_seq``; everything newer is either in
        ``items`` already (backfilled here: ``from_seq`` is a live
        replica's position, so at or above ``floor()``) or will be
        published later (fanned out normally).
        """
        queue = Queue(name=f"feed->{name}")
        for item in self.items:
            if item.seq > from_seq:
                queue.put(item)
        self._subscribers[name] = queue
        return queue

    def unsubscribe(self, name: str) -> None:
        self._subscribers.pop(name, None)

    def metrics(self) -> dict:
        return {
            "tip_seq": self.tip_seq,
            "tip_tid": self.tip_tid,
            "published": self.published,
            "duplicates": self.duplicates,
            "subscribers": self.subscriber_count,
        }
