"""Tests for total order + uniform reliable multicast and membership."""

import pytest

from repro.errors import NotAMember
from repro.gcs import GcsConfig, GroupBus, Message, ViewChange
from repro.sim import Simulator


def build_group(n, seed=1, **config):
    sim = Simulator(seed=seed)
    bus = GroupBus(sim, config=GcsConfig(**config) if config else None)
    members = [bus.join(f"m{i}") for i in range(n)]
    return sim, bus, members


def drain(sim, member, count):
    """Collect `count` deliveries from a member inbox."""
    out = []

    def collector():
        for _ in range(count):
            item = yield member.deliver()
            out.append(item)

    sim.spawn(collector(), name=f"drain-{member.member_id}")
    return out


def payloads(items):
    return [it.payload for it in items if isinstance(it, Message)]


def test_join_announces_views_in_order():
    sim, bus, members = build_group(3)
    assert bus.members == ("m0", "m1", "m2")
    out = drain(sim, members[0], 1)  # m0 sees views 2 and 3 too, but at least its own join
    sim.run()
    assert isinstance(out[0], ViewChange)


def test_total_order_same_everywhere(monkeypatch):
    monkeypatch.setattr(GcsConfig, "jitter", 0.001)
    sim, bus, members = build_group(3, seed=7)
    inboxes = []

    def sender(member, tag):
        for i in range(10):
            yield sim.sleep(0.0001)
            member.multicast(f"{tag}-{i}")

    for member, tag in zip(members, "abc"):
        sim.spawn(sender(member, tag), name=f"send-{tag}")
    for member in members:
        # 30 messages + the view changes this member observes
        views_seen = 3 - int(member.member_id[1])
        inboxes.append(drain(sim, member, 30 + views_seen))
    sim.run()
    sequences = [payloads(inbox) for inbox in inboxes]
    assert len(sequences[0]) == 30
    assert sequences[0] == sequences[1] == sequences[2]


def test_sender_delivers_its_own_messages():
    sim, bus, members = build_group(2)
    out = drain(sim, members[0], 3)  # 2 view changes + 1 message
    members[0].multicast("hello")
    sim.run()
    assert payloads(out) == ["hello"]


def test_seq_numbers_strictly_increase_per_member():
    sim, bus, members = build_group(3, seed=2)

    def sender():
        for i in range(20):
            yield sim.sleep(0.0001)
            members[i % 3].multicast(i)

    sim.spawn(sender(), name="sender")
    out = drain(sim, members[2], 20 + 1)
    sim.run()
    seqs = [item.seq for item in out]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_crashed_member_message_in_flight_is_lost_everywhere():
    """A message still on its way to the sequencer dies with its sender."""
    sim, bus, members = build_group(3, seed=4)
    out1 = drain(sim, members[1], 100)
    out2 = drain(sim, members[2], 100)

    def scenario():
        yield sim.sleep(1.0)
        members[0].multicast("doomed")
        bus.crash("m0")  # crash before sender->bus hop completes
        yield sim.sleep(2.0)

    sim.run_process(scenario())
    assert "doomed" not in payloads(out1)
    assert "doomed" not in payloads(out2)


def test_uniform_delivery_sequenced_message_reaches_all_survivors():
    """Once sequenced, a message is delivered to all survivors even if the
    sender crashes immediately afterwards — before their view change."""
    sim, bus, members = build_group(3, seed=4, crash_detection=0.5)
    out1 = drain(sim, members[1], 100)

    def scenario():
        yield sim.sleep(1.0)
        members[0].multicast("survives")
        yield sim.sleep(0.01)  # enough for sender->bus sequencing
        bus.crash("m0")
        yield sim.sleep(2.0)

    sim.run_process(scenario())
    items = [it for it in out1 if isinstance(it, (Message, ViewChange))]
    kinds = [
        it.payload if isinstance(it, Message) else "VIEW"
        for it in items
        if (isinstance(it, Message) and it.payload == "survives")
        or (isinstance(it, ViewChange) and "m0" in it.crashed)
    ]
    assert kinds == ["survives", "VIEW"]


def test_view_change_lists_crashed_member_and_new_membership():
    sim, bus, members = build_group(3)
    out1 = drain(sim, members[1], 10)

    def scenario():
        yield sim.sleep(1.0)
        bus.crash("m2")
        yield sim.sleep(2.0)

    sim.run_process(scenario())
    crash_views = [
        it for it in out1 if isinstance(it, ViewChange) and it.crashed == ("m2",)
    ]
    assert len(crash_views) == 1
    assert crash_views[0].members == ("m0", "m1")


def test_crash_detection_delay_applies():
    sim, bus, members = build_group(2, crash_detection=0.75)
    seen_at = {}

    def watcher():
        while True:
            item = yield members[0].deliver()
            if isinstance(item, ViewChange) and item.crashed:
                seen_at["t"] = sim.now
                return

    sim.spawn(watcher(), name="watcher")

    def scenario():
        yield sim.sleep(1.0)
        bus.crash("m1")
        yield sim.sleep(2.0)

    sim.run_process(scenario())
    assert seen_at["t"] >= 1.75


def test_messages_during_detection_window_deliver_before_view_change():
    sim, bus, members = build_group(3, seed=9, crash_detection=0.5)
    out1 = drain(sim, members[1], 100)

    def scenario():
        yield sim.sleep(1.0)
        bus.crash("m0")
        yield sim.sleep(0.1)  # inside the detection window
        members[2].multicast("window-msg")
        yield sim.sleep(2.0)

    sim.run_process(scenario())
    ordered = [
        ("msg" if isinstance(it, Message) else "view")
        for it in out1
        if (isinstance(it, Message) and it.payload == "window-msg")
        or (isinstance(it, ViewChange) and it.crashed)
    ]
    assert ordered == ["msg", "view"]


def test_crashed_member_cannot_multicast():
    sim, bus, members = build_group(2)
    bus.crash("m0")
    with pytest.raises(NotAMember):
        members[0].multicast("zombie")


def test_crashed_member_receives_nothing_more():
    sim, bus, members = build_group(2, seed=3)
    out0 = drain(sim, members[0], 100)

    def scenario():
        yield sim.sleep(1.0)
        bus.crash("m0")
        yield sim.sleep(0.1)
        members[1].multicast("after-crash")
        yield sim.sleep(1.0)

    sim.run_process(scenario())
    assert "after-crash" not in payloads(out0)


def test_multicast_latency_within_paper_envelope():
    """One uniform reliable multicast should cost <= 3 ms (paper §5.2)."""
    sim, bus, members = build_group(5, seed=6)
    stamp = {}

    def receiver():
        while True:
            item = yield members[4].deliver()
            if isinstance(item, Message):
                stamp["latency"] = sim.now - item.payload
                return

    sim.spawn(receiver(), name="receiver")

    def sender():
        yield sim.sleep(1.0)
        members[0].multicast(sim.now)

    sim.spawn(sender(), name="sender")
    sim.run()
    assert 0 < stamp["latency"] <= 0.003


def test_rejoin_after_crash_allowed():
    sim, bus, members = build_group(2)
    bus.crash("m1")
    rejoined = bus.join("m1")
    assert rejoined.alive
    assert "m1" in bus.members
