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

Each socket is read into one reused buffer of ``BUFFER_BYTES``.  The
last tests hold that buffer to its edge cases: a frame larger than the
buffer, frames that straddle its end under any read chunking, and a
long exchange that must never allocate a new one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the receive buffer --------------------------------------------------------

BUFFER_BYTES = tcpnet.BUFFER_BYTES


def receiver_of(end):
    """The protocol that parses what ``end``'s socket receives."""
    return end._transport.get_protocol()


def test_one_mib_frame_arrives_whole_and_the_buffer_shrinks_back(rt):
    channel, server = open_channel(rt)
    watchdog(rt)
    big = bytes(range(256)) * 4096

    def reader():
        end = yield server.accept()
        got = [(yield from end.recv()), (yield from end.recv())]
        return end, got

    channel.client_end.send(big)
    channel.client_end.send("after")
    end, got = rt.run_process(reader(), name="reader")
    assert got == [big, "after"]
    receiver = receiver_of(end)
    assert receiver._buf is receiver._base
    assert len(receiver._buf) == BUFFER_BYTES


def test_thousand_round_trips_reuse_one_buffer_per_socket(rt):
    channel, server = open_channel(rt)
    watchdog(rt)

    def echo():
        end = yield server.accept()
        try:
            while True:
                end.send((yield from end.recv()))
        except ChannelClosed:
            return

    def client():
        end = channel.client_end
        buffers = None
        for i in range(1000):
            message = ("ping", i, "x" * (i % 300))
            end.send(message)
            assert (yield from end.recv()) == message
            if buffers is None:
                receivers = [receiver_of(channel.client_end), receiver_of(channel.server_end)]
                buffers = [receiver._buf for receiver in receivers]
        channel.close()
        return receivers, buffers

    rt.spawn(echo(), name="echo")
    receivers, buffers = rt.run_process(client(), name="client")
    for receiver, buffer in zip(receivers, buffers):
        assert receiver._buf is buffer is receiver._base
        assert len(buffer) == BUFFER_BYTES


class Inbox:
    """Stands in for a bound channel end: keeps what the parser delivers."""

    def __init__(self):
        self.got = []
        self.peer = self

    def _deliver(self, message):
        self.got.append(message)

    def _token_release(self):
        pass


def feed(receiver, data: bytes, cuts) -> None:
    """Hand ``data`` to ``receiver`` as the socket transport does, cut
    into writes at ``cuts``: each write is read into the buffer's free
    tail, in as many reads as it takes."""
    pos = 0
    for stop in [*sorted(cuts), len(data)]:
        while pos < stop:
            free = receiver.get_buffer(-1)
            n = min(len(free), stop - pos)
            free[:n] = data[pos:pos + n]
            receiver.buffer_updated(n)
            pos += n


def padding(frame_bytes: int) -> bytes:
    """A message whose frame is exactly ``frame_bytes`` long (< 64 KiB)."""
    size = frame_bytes - (len(tcpnet._frame(b"x" * frame_bytes)) - frame_bytes)
    assert len(tcpnet._frame(b"x" * size)) == frame_bytes
    return b"x" * size


def parse(messages, cuts=()):
    """Feed the frames of ``messages`` to a fresh receiver; returns it,
    what it delivered, and whether each ``_make_room`` call kept the base
    buffer."""
    receiver = tcpnet._FrameProtocol(None, Inbox())
    moves = []
    make_room = receiver._make_room

    def spy(pos, end):
        make_room(pos, end)
        moves.append(receiver._buf is receiver._base)

    receiver._make_room = spy
    feed(receiver, b"".join(tcpnet._frame(m) for m in messages), cuts)
    return receiver, receiver.end.got, moves


@pytest.mark.parametrize("gap", [1, 3, 4, 40])
def test_frame_straddling_the_buffer_end_moves_to_the_front(gap):
    # the second frame starts ``gap`` bytes before the end of the buffer:
    # its header (gap < 4) or its body (gap >= 4) straddles the end
    messages = [padding(BUFFER_BYTES - gap), "straddles", "third"]
    receiver, got, moves = parse(messages)
    assert got == messages
    assert moves == [True]
    assert receiver._buf is receiver._base
    assert receiver._start == receiver._end == 0


frame_sizes = st.one_of(
    st.integers(0, 300),
    st.integers(300, BUFFER_BYTES // 2),
    st.integers(BUFFER_BYTES, 2 * BUFFER_BYTES),
)


@settings(max_examples=60, deadline=None)
@given(
    gap=st.integers(1, 12),
    sizes=st.lists(frame_sizes, min_size=1, max_size=8),
    data=st.data(),
)
def test_mixed_frames_arrive_whole_and_in_order_under_any_chunking(gap, sizes, data):
    messages = [padding(BUFFER_BYTES - gap)] + [
        (i, bytes([i]) * size) for i, size in enumerate(sizes)
    ]
    total = sum(len(tcpnet._frame(m)) for m in messages)
    cuts = data.draw(st.lists(st.integers(0, total), max_size=24))
    receiver, got, _moves = parse(messages, cuts)
    assert got == messages
    assert receiver._buf is receiver._base
    assert receiver._start == receiver._end == 0
