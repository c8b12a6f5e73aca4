"""Unit tests for the certified-stream fan-out (CertifiedFeed)."""

from repro.durable.log import DDL, WS, LogRecord
from repro.reader import CertifiedFeed
from repro.sim import Simulator


def ws(seq, tid, gid="g", ops=(), sender="R0"):
    return LogRecord(seq, WS, gid=gid, tid=tid, sender=sender, ops=tuple(ops))


def test_first_publisher_wins_dedup():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.0)
    queue = feed.subscribe("r")
    assert feed.publish(ws(1, 1, sender="R0"))
    assert not feed.publish(ws(1, 1, sender="R1"))
    assert not feed.publish(ws(1, 1, sender="R2"))
    assert feed.publish(ws(2, 2, sender="R1"))
    assert feed.published == 2
    assert feed.duplicates == 2
    assert len(queue) == 2


def test_tip_may_jump_forward():
    """After a cold restart replayed seqs are never published; the next
    live publish lands past the gap and must be accepted."""
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.0)
    assert feed.publish(ws(5, 5))
    assert feed.tip_seq == 5
    assert feed.tip_tid == 5
    assert not feed.publish(ws(3, 3))  # stale straggler stays rejected


def test_ddl_advances_seq_not_tid():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.0)
    feed.publish(ws(1, 1))
    feed.publish(LogRecord(2, DDL, sql="CREATE TABLE t (k INT PRIMARY KEY)"))
    assert feed.tip_seq == 2
    assert feed.tip_tid == 1


def test_subscribe_backfills_items_after_from_seq():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.0)
    for seq in range(1, 6):
        feed.publish(ws(seq, seq))
    queue = feed.subscribe("late", from_seq=3)
    assert [item.seq for item in queue.peek_all()] == [4, 5]
    feed.publish(ws(6, 6))
    assert [item.seq for item in queue.peek_all()] == [4, 5, 6]


def test_unsubscribe_stops_delivery():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.0)
    queue = feed.subscribe("r")
    feed.publish(ws(1, 1))
    feed.unsubscribe("r")
    feed.publish(ws(2, 2))
    assert [item.seq for item in queue.peek_all()] == [1]
    assert feed.subscriber_count == 0


def test_fanout_delay_is_one_strong_hop():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.01)
    queue = feed.subscribe("r")
    feed.publish(ws(1, 1))
    assert len(queue) == 0  # in flight, not yet delivered
    sim.run()  # strong timer: quiescence waits for the fan-out
    assert sim.now >= 0.01
    assert [item.seq for item in queue.peek_all()] == [1]


def test_publish_without_subscribers_schedules_nothing():
    """A cluster without readers must stay event-identical to one built
    before the read tier existed (seed-stable benchmarks)."""
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.01)
    feed.publish(ws(1, 1))
    sim.run()
    assert sim.now == 0.0
    assert feed.metrics()["tip_seq"] == 1


def test_subscribers_get_independent_queues():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, fanout_delay=0.0)
    a = feed.subscribe("a")
    b = feed.subscribe("b")
    feed.publish(ws(1, 1))
    got = []
    sim.run_process(iter_get(a, got))
    assert got == [1]
    assert [item.seq for item in b.peek_all()] == [1]  # b unaffected by a's get


def iter_get(queue, out):
    item = yield queue.get()
    out.append(item.seq)
