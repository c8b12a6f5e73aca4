"""Sequencer-side batching unit tests: batch formation (size and window
triggers), ordering against unbatchable traffic and view changes, the
serial-sequencer service time, and entry-granular delivery metrics.
"""

import pytest

from repro.core.protocol import WritesetMessage
from repro.gcs import Batch, GcsConfig, GroupBus, Message, ViewChange
from repro.sim import Simulator
from repro.storage.writeset import UPDATE, WriteOp, WriteSet


@pytest.fixture(autouse=True)
def no_jitter(monkeypatch):
    # deterministic hop timing: these tests assert exact formation order
    monkeypatch.setattr(GcsConfig, "jitter", 0.0)


def build_group(n, seed=1, **config):
    sim = Simulator(seed=seed)
    bus = GroupBus(sim, config=GcsConfig(**config))
    members = [bus.join(f"m{i}") for i in range(n)]
    return sim, bus, members


def drain(sim, member):
    out = []

    def collector():
        while True:
            item = yield member.deliver()
            out.append(item)

    sim.spawn(collector(), name=f"drain-{member.member_id}", daemon=True)
    return out


def batches(items):
    return [it for it in items if isinstance(it, Batch)]


def entry_payloads(items):
    """Logical delivery stream: batch entries flattened in order."""
    out = []
    for item in items:
        if isinstance(item, Batch):
            out.extend(m.payload for m in item.entries)
        elif isinstance(item, Message):
            out.append(item.payload)
    return out


def test_batch_flushes_when_full():
    sim, bus, members = build_group(2, batch_max_messages=3, batch_window=10.0)
    out = drain(sim, members[1])

    def sender():
        for i in range(3):
            members[0].multicast(i, batchable=True)
            yield sim.sleep(0.0001)

    sim.run_process(sender())
    sim.run(until=1.0)  # far below the 10 s window: only the size trigger
    got = batches(out)
    assert len(got) == 1
    assert len(got[0]) == 3
    assert entry_payloads(out) == [0, 1, 2]


def test_batch_flushes_on_window_expiry():
    sim, bus, members = build_group(2, batch_max_messages=8, batch_window=0.05)
    out = drain(sim, members[1])

    def sender():
        members[0].multicast("a", batchable=True)
        yield sim.sleep(0.001)
        members[0].multicast("b", batchable=True)

    sim.run_process(sender())
    sim.run(until=1.0)
    got = batches(out)
    assert len(got) == 1
    assert [m.payload for m in got[0].entries] == ["a", "b"]
    # the window ran from the FIRST held payload
    assert got[0].sequenced_at - got[0].opened_at == bus.config.batch_window


def test_stale_window_timer_does_not_flush_next_batch():
    """A size-triggered flush must invalidate the pending window timer:
    the timer firing later may not prematurely flush a NEW buffer."""
    sim, bus, members = build_group(2, batch_max_messages=2, batch_window=0.05)
    out = drain(sim, members[1])

    def sender():
        members[0].multicast("a", batchable=True)
        yield sim.sleep(0.001)
        members[0].multicast("b", batchable=True)  # size flush; timer now stale
        yield sim.sleep(0.001)
        members[0].multicast("c", batchable=True)  # new buffer
        yield sim.sleep(0.001)

    sim.run_process(sender())
    sim.run(until=0.03)  # past the stale timer, before c's own window
    assert entry_payloads(out) == ["a", "b"]  # c still held
    sim.run(until=1.0)
    assert entry_payloads(out) == ["a", "b", "c"]


def test_unbatchable_message_flushes_buffer_first():
    """Control traffic is ordered behind held batchables — arrival order
    at the bus is the total order, batched or not."""
    sim, bus, members = build_group(2, batch_max_messages=8, batch_window=1.0)
    out = drain(sim, members[1])

    def sender():
        members[0].multicast("ws1", batchable=True)
        yield sim.sleep(0.001)
        members[0].multicast("ddl")  # unbatchable
        yield sim.sleep(0.001)

    sim.run_process(sender())
    sim.run(until=2.0)
    assert entry_payloads(out) == ["ws1", "ddl"]
    got = batches(out)
    assert len(got) == 1 and len(got[0]) == 1  # ws1 flushed as a 1-batch


def writeset_message(gid, *keys):
    ops = [WriteOp("t", k, UPDATE, {"k": k}) for k in keys]
    return WritesetMessage(gid=gid, writeset=WriteSet(ops), sender="m0")


def test_reorder_keeps_arrival_order_when_a_payload_is_not_a_writeset():
    """The sequencer reorders a batch only when every payload has a
    ``conflict_info``; one batchable payload without it keeps the whole
    batch in arrival order."""
    hub = writeset_message("hub", 1, 2)
    left, right = writeset_message("left", 1), writeset_message("right", 2)

    def sequenced(payloads):
        sim, bus, members = build_group(
            2, batch_max_messages=8, batch_window=0.05, reorder=True
        )
        out = drain(sim, members[1])
        for payload in payloads:
            members[0].multicast(payload, batchable=True)
        sim.run(until=1.0)
        assert len(batches(out)) == 1
        return entry_payloads(out)

    # the hub conflicts with both others, so it goes last...
    assert sequenced([hub, left, right]) == [left, right, hub]
    # ...unless the batch holds a payload the sequencer cannot read
    assert sequenced([hub, "note", left, right]) == [hub, "note", left, right]


def test_join_view_change_ordered_behind_held_batch():
    sim, bus, members = build_group(2, batch_max_messages=8, batch_window=1.0)
    out = drain(sim, members[1])

    def scenario():
        members[0].multicast("ws1", batchable=True)
        yield sim.sleep(0.01)
        bus.join("m2")
        yield sim.sleep(0.01)

    sim.run_process(scenario())
    sim.run(until=2.0)
    kinds = [
        "batch" if isinstance(it, Batch) else "m2-join"
        for it in out
        if isinstance(it, Batch)
        or (isinstance(it, ViewChange) and "m2" in it.joined)
    ]
    assert kinds == ["batch", "m2-join"]


def test_entries_keep_individual_increasing_seqs():
    sim, bus, members = build_group(2, batch_max_messages=4, batch_window=0.01)
    out = drain(sim, members[0])

    def sender():
        for i in range(8):
            members[0].multicast(i, batchable=True)
            yield sim.sleep(0.0001)

    sim.run_process(sender())
    sim.run(until=1.0)
    seqs = [
        m.seq
        for item in out
        if isinstance(item, Batch)
        for m in item.entries
    ]
    assert len(seqs) == 8
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 8


def test_delivered_count_counts_entries_not_batches():
    sim, bus, members = build_group(2, batch_max_messages=4, batch_window=0.01)
    drain(sim, members[0])
    drain(sim, members[1])

    def sender():
        for i in range(4):
            members[0].multicast(i, batchable=True)
            yield sim.sleep(0.0001)

    sim.run_process(sender())
    sim.run(until=1.0)
    # 2 join view changes seen by m0 + 1 by m1 = 3 deliveries, plus the
    # 4-entry batch delivered at BOTH members = 8 entry deliveries
    assert bus.delivered_batches == 2
    assert bus.delivered_count == 3 + 8
    assert bus.mean_batch_size == 4.0


def test_dead_sender_entries_dropped_at_flush():
    sim, bus, members = build_group(3, batch_max_messages=8, batch_window=0.05)
    out = drain(sim, members[1])

    def scenario():
        members[0].multicast("doomed", batchable=True)
        yield sim.sleep(0.002)  # reaches the buffer...
        members[2].multicast("lives", batchable=True)
        yield sim.sleep(0.002)
        bus.crash("m0")  # ...but the sender dies before the flush
        yield sim.sleep(2.0)

    sim.run_process(scenario())
    assert entry_payloads(out) == ["lives"]
    assert bus.batched_entries == 1


def test_serial_sequencer_spaces_fanouts():
    """With bus_service_time set the sequencer is a serial server: two
    back-to-back unbatched messages fan out one service apart."""
    sim, bus, members = build_group(2, bus_service_time=0.01)
    stamps = []

    def collector():
        while True:
            item = yield members[1].deliver()
            if isinstance(item, Message):
                stamps.append(sim.now)

    sim.spawn(collector(), name="collector", daemon=True)

    def sender():
        yield sim.sleep(0.1)
        members[0].multicast("a")
        members[0].multicast("b")

    sim.run_process(sender())
    sim.run(until=1.0)
    assert len(stamps) == 2
    assert abs((stamps[1] - stamps[0]) - 0.01) < 1e-9


def test_batch_occupies_sequencer_once():
    """A k-entry batch pays one service, not k — the amortisation that
    raises the bus's writesets/second ceiling by the batch factor."""
    sim_b, bus_b, members_b = build_group(
        2, bus_service_time=0.01, batch_max_messages=4,
        batch_window=0.001,
    )
    done = []

    def collector(member, sink):
        count = 0
        while True:
            item = yield member.deliver()
            if isinstance(item, Batch):
                count += len(item)
            elif isinstance(item, Message):
                count += 1
            if count >= 8:
                sink.append(sim_b.now)
                return

    sink_b = []
    sim_b.spawn(collector(members_b[1], sink_b), name="cb", daemon=True)

    def sender():
        yield sim_b.sleep(0.1)
        for i in range(8):
            members_b[0].multicast(i, batchable=True)

    sim_b.run_process(sender())
    sim_b.run(until=5.0)
    # 8 messages = 2 batches of 4 = 2 services (0.02 s of occupancy);
    # unbatched they would pay 8 services (0.08 s)
    assert sink_b, "batched deliveries never completed"
    assert sink_b[0] < 0.1 + 0.008 + 0.02 + 0.01  # hops + 2 services + slack
