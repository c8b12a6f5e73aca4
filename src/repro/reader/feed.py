"""The certified writeset stream the read tier subscribes to.

Every full replica certifies the same writesets in the same total
delivery order and assigns the same certification tids, so each one can
publish the certified stream independently: the feed keeps the **first**
publish of each feed sequence and drops the (identical) duplicates from
the other replicas.  Fan-out to subscriber queues pays one constant
``fanout_delay`` hop, scheduled with a *strong* timer so running the
simulation to quiescence always drains the read tier before an audit.

Feed sequences count **replicated** items only (certified writeset
passes and replicated DDL, interleaved in delivery order).  Genesis
schema/bulk-load never travels on the feed — a reader gets it directly
at bootstrap — and neither does durable-log *replay* (a recovering full
replica advances its feed counter silently; the surviving replicas
already published those items).  Accepted items are retained so a
reader joining mid-run can backfill everything after its bootstrap
position without racing the in-flight fan-out.
"""

from __future__ import annotations

from repro.durable.log import WS, LogRecord
from repro.sim import Simulator
from repro.sim.sync import Queue


class CertifiedFeed:
    """Deduplicated, order-preserving pub/sub over the certified stream.

    Items are :class:`~repro.durable.log.LogRecord` objects whose ``seq``
    is the feed sequence: a ``ws`` record for a certified writeset, a
    ``ddl`` record for replicated DDL.  They are built with the plain
    constructor, so no JSON text is encoded for them.
    """

    def __init__(self, sim: Simulator, fanout_delay: float = 0.0005):
        self.sim = sim
        self.fanout_delay = fanout_delay
        #: highest feed seq accepted (first-publisher-wins dedup cursor)
        self.tip_seq = 0
        #: certification tid of the newest accepted writeset — what a
        #: reader's lag is measured against
        self.tip_tid = 0
        #: accepted items, ascending seq (subscriber backfill)
        self.items: list[LogRecord] = []
        self._subscribers: dict[str, Queue] = {}
        self.published = 0
        self.duplicates = 0

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def publish(self, item: LogRecord) -> bool:
        """Offer one certified item; returns True if this publish won.

        Publishers emit in increasing seq order, so anything at or below
        the tip is a duplicate from a slower replica.  The tip may jump
        forward past unpublished seqs after a cold restart (replayed
        records are never published — subscribers bootstrapped past
        them).
        """
        if item.seq <= self.tip_seq:
            self.duplicates += 1
            return False
        self.tip_seq = item.seq
        if item.kind == WS:
            self.tip_tid = item.tid
        self.items.append(item)
        self.published += 1
        for queue in self._subscribers.values():
            self._deliver(queue, item)
        return True

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
        ``items`` already (backfilled here) or will be published later
        (fanned out normally).
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
