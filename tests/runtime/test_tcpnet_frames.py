"""The TCP frame parser: whole frames in order, bad frames fail closed.

Every socket of a :class:`TcpNetwork` is parsed in the loop's receive
callback.  These tests drive it with well-formed frames split and
coalesced every way TCP may deliver them, and with frames a decoder must
refuse: a pickle naming a class that does not exist, bytes that are not
a pickle at all, and a length header past :data:`MAX_FRAME_BYTES`.  A
refused frame breaks the channel behind the frames already delivered,
like a crash, and frees every I/O token, so ``run()`` still quiesces.

Each test has a watchdog on a weak timer: a parser that swallows the
break instead would leave the receiver parked and the run alive, and
the watchdog turns that hang into a failure.
"""

import pytest

from repro.net import ChannelClosed
from repro.runtime import AsyncioRuntime, TcpNetwork, tcpnet

#: seconds before a hung exchange fails the test
WATCHDOG_S = 10.0


@pytest.fixture
def rt():
    runtime = AsyncioRuntime(seed=0)
    yield runtime
    runtime.stop()


def watchdog(rt):
    """A non-daemon process that fails the run after ``WATCHDOG_S`` —
    on a weak timer, so it never keeps a run alive by itself."""

    def expire():
        yield rt.sleep(WATCHDOG_S, weak=True)
        raise TimeoutError("channel never broke or never quiesced")

    rt.spawn(expire(), name="watchdog")


def open_channel(rt):
    net = TcpNetwork(rt)
    client = net.register("client")
    server = net.register("server")
    return net.connect(client, "server"), server


def receive_all(rt, server):
    """Run until the server end breaks; returns what arrived first."""

    def reader():
        end = yield server.accept()
        got = []
        try:
            while True:
                got.append((yield from end.recv()))
        except ChannelClosed:
            return got

    return rt.run_process(reader(), name="reader")


def raw_frames(monkeypatch, raw: dict) -> None:
    """Make ``send(key)`` put ``raw[key]`` on the wire verbatim — header
    and all — so a test can send frames ``_frame`` would never build,
    through the ordinary send path and its I/O token."""
    encode = tcpnet._frame
    monkeypatch.setattr(
        tcpnet, "_frame",
        lambda obj: raw[obj] if isinstance(obj, str) and obj in raw else encode(obj),
    )


def body(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


BAD_FRAMES = {
    # a pickle that names a class no module defines (AttributeError)
    "unknown-class": body(b"c__main__\nNope\n."),
    # junk that dies inside an opcode (ValueError), and junk that is not
    # a pickle from its first byte (UnpicklingError)
    "junk": body(b"Inot a number\n."),
    "garbage": body(b"\xffthis is not a pickle"),
    # a header asking for 2 GiB, with a little body behind it
    "oversized": (1 << 31).to_bytes(4, "big") + b"x" * 64,
}


@pytest.mark.parametrize("bad", sorted(BAD_FRAMES))
def test_bad_frame_breaks_the_channel_behind_earlier_frames(rt, monkeypatch, bad):
    raw_frames(monkeypatch, BAD_FRAMES)
    channel, server = open_channel(rt)
    watchdog(rt)
    for message in ("one", "two", bad, "lost"):
        channel.client_end.send(message)
    assert receive_all(rt, server) == ["one", "two"]
    rt.run()
    assert rt._strong == 0
    assert channel.broken


def test_sender_sees_the_break_too(rt, monkeypatch):
    raw_frames(monkeypatch, BAD_FRAMES)
    channel, server = open_channel(rt)
    watchdog(rt)

    def accept():
        yield server.accept()

    rt.spawn(accept(), name="accept")
    channel.client_end.send("junk")

    def sender():
        with pytest.raises(ChannelClosed):
            yield from channel.client_end.recv()
        return True

    assert rt.run_process(sender(), name="sender") is True
    rt.run()
    assert rt._strong == 0


def write_raw(rt, channel, pieces):
    """Process: once the client socket is up, write ``pieces`` straight
    to it (a loop turn after each), then close that socket — a FIN from
    the client side, as a peer process exiting would send."""

    def writer():
        while channel.client_end._transport is None:
            yield rt.sleep(0.001)
        transport = channel.client_end._transport
        for piece in pieces:
            transport.write(piece)
            yield rt.sleep(0)
        transport.close()

    rt.spawn(writer(), name="writer")


def test_frame_written_byte_by_byte_arrives_whole(rt):
    channel, server = open_channel(rt)
    watchdog(rt)
    message = {"k": list(range(50)), "v": "x" * 300}
    data = tcpnet._frame(message) + tcpnet._frame("after")
    write_raw(rt, channel, [data[i:i + 1] for i in range(len(data))])
    assert receive_all(rt, server) == [message, "after"]


def test_hundred_frames_in_one_write_arrive_in_order(rt):
    channel, server = open_channel(rt)
    watchdog(rt)
    messages = [("m", i, "p" * (i % 7)) for i in range(100)]
    write_raw(rt, channel, [b"".join(tcpnet._frame(m) for m in messages)])
    assert receive_all(rt, server) == messages


def test_close_mid_frame_breaks_without_a_partial_message(rt):
    channel, server = open_channel(rt)
    watchdog(rt)
    torn = tcpnet._frame("torn in half")
    write_raw(rt, channel, [tcpnet._frame("whole") + torn[: len(torn) // 2]])
    assert receive_all(rt, server) == ["whole"]
    rt.run()
    assert rt._strong == 0
