"""Unit tests for the certified-stream fan-out (CertifiedFeed)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.log import DDL, WS, LogRecord
from repro.reader import CertifiedFeed
from repro.sim import Simulator


def ws(seq, tid, gid="g", ops=(), sender="R0"):
    return LogRecord(seq, WS, gid=gid, tid=tid, sender=sender, ops=tuple(ops))


def keep_all():
    """A join floor below every seq: the feed drops nothing."""
    return 0


def test_first_publisher_wins_dedup():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.0)
    queue = feed.subscribe("r")
    assert feed.publish(ws(1, 1, sender="R0"))
    assert not feed.publish(ws(1, 1, sender="R1"))
    assert not feed.publish(ws(1, 1, sender="R2"))
    assert feed.publish(ws(2, 2, sender="R1"))
    assert feed.published == 2
    assert feed.duplicates == 2
    assert len(queue) == 2


def test_tip_may_jump_forward():
    """Seqs are total-order seqs, and aborts, sync markers and view
    changes take some without publishing: the next publish lands past
    the gap and must be accepted."""
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.0)
    assert feed.publish(ws(5, 5))
    assert feed.tip_seq == 5
    assert feed.tip_tid == 5
    assert not feed.publish(ws(3, 3))  # stale straggler stays rejected


def test_ddl_advances_seq_not_tid():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.0)
    feed.publish(ws(1, 1))
    feed.publish(LogRecord(2, DDL, sql="CREATE TABLE t (k INT PRIMARY KEY)"))
    assert feed.tip_seq == 2
    assert feed.tip_tid == 1


def test_subscribe_backfills_items_after_from_seq():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.0)
    for seq in range(1, 6):
        feed.publish(ws(seq, seq))
    queue = feed.subscribe("late", from_seq=3)
    assert [item.seq for item in queue.peek_all()] == [4, 5]
    feed.publish(ws(6, 6))
    assert [item.seq for item in queue.peek_all()] == [4, 5, 6]


def test_unsubscribe_stops_delivery():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.0)
    queue = feed.subscribe("r")
    feed.publish(ws(1, 1))
    feed.unsubscribe("r")
    feed.publish(ws(2, 2))
    assert [item.seq for item in queue.peek_all()] == [1]
    assert feed.subscriber_count == 0


def test_fanout_delay_is_one_strong_hop():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.01)
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
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.01)
    feed.publish(ws(1, 1))
    sim.run()
    assert sim.now == 0.0
    assert feed.metrics()["tip_seq"] == 1


def test_subscribers_get_independent_queues():
    sim = Simulator(seed=1)
    feed = CertifiedFeed(sim, keep_all, fanout_delay=0.0)
    a = feed.subscribe("a")
    b = feed.subscribe("b")
    feed.publish(ws(1, 1))
    got = []
    sim.run_process(iter_get(a, got))
    assert got == [1]
    assert [item.seq for item in b.peek_all()] == [1]  # b unaffected by a's get


# -- the join window: items at or below the floor go ------------------------------


def window_feed(floor):
    """A feed whose join floor is ``floor[0]`` (the test moves it)."""
    return CertifiedFeed(Simulator(seed=1), lambda: floor[0], fanout_delay=0.0)


def test_the_floor_drops_items_at_or_below_it():
    floor = [0]
    feed = window_feed(floor)
    for seq in (2, 5, 6, 9):
        feed.publish(ws(seq, seq))
    assert [item.seq for item in feed.items] == [2, 5, 6, 9]
    floor[0] = 5
    assert not feed.publish(ws(5, 5, sender="R1"))  # a duplicate trims too
    assert [item.seq for item in feed.items] == [6, 9]
    assert feed.tip_seq == 9 and feed.published == 4


def test_the_tip_goes_once_the_floor_reaches_it():
    floor = [0]
    feed = window_feed(floor)
    feed.publish(ws(3, 1))
    feed.publish(ws(7, 2))
    floor[0] = 7  # the slowest publisher has published the tip
    feed.publish(ws(7, 2, sender="R1"))
    assert len(feed.items) == 0
    assert feed.tip_seq == 7 and feed.tip_tid == 2
    assert feed.publish(ws(8, 3))  # dedup still holds past an empty window
    assert not feed.publish(ws(7, 2, sender="R2"))


def test_a_backfill_from_a_donor_at_the_floor_is_complete():
    floor = [0]
    feed = window_feed(floor)
    floor[0] = 4
    for seq in (1, 4, 6, 10):
        feed.publish(ws(seq, seq))
    assert [item.seq for item in feed.items] == [6, 10]
    queue = feed.subscribe("late", from_seq=4)
    assert [item.seq for item in queue.peek_all()] == [6, 10]


@settings(max_examples=150, deadline=None)
@given(
    seqs=st.lists(st.integers(1, 400), min_size=1, max_size=30, unique=True).map(sorted),
    publishers=st.integers(1, 4),
    data=st.data(),
)
def test_subscribers_see_the_suffix_and_the_window_stays_above_the_floor(
    seqs, publishers, data
):
    """k publishers publish one sparse increasing seq list, each at its
    own pace; readers join at random moments from a random publisher's
    position.  Each reader's stream is the reference suffix above its
    join position, and the feed keeps nothing at or below the lowest
    publisher's position."""
    done = [0] * publishers  # items each publisher has published
    position = [0] * publishers  # its feed_seq: the last seq it published
    feed = CertifiedFeed(Simulator(seed=1), lambda: min(position), fanout_delay=0.0)
    joined = []
    while min(done) < len(seqs):
        if data.draw(st.booleans(), label="join"):
            donor = data.draw(st.integers(0, publishers - 1), label="donor")
            name = f"r{len(joined)}"
            joined.append((position[donor], feed.subscribe(name, position[donor])))
        behind = [p for p in range(publishers) if done[p] < len(seqs)]
        p = data.draw(st.sampled_from(behind), label="publisher")
        seq = seqs[done[p]]
        position[p] = seq
        done[p] += 1
        feed.publish(ws(seq, seq, sender=f"R{p}"))
        assert all(item.seq > min(position) for item in feed.items)
    assert len(feed.items) == 0
    for start, queue in joined:
        assert [item.seq for item in queue.peek_all()] == [s for s in seqs if s > start]


def iter_get(queue, out):
    item = yield queue.get()
    out.append(item.seq)
