"""Loopback TCP sockets as the transport of :mod:`repro.net.network`.

:class:`TcpNetwork`, :class:`TcpHost`, :class:`TcpChannel` and
:class:`TcpChannelEnd` subclass the channel state machine of
:mod:`repro.net.network`, which states the contract they keep.  What
they add is the transport: every channel is a real loopback TCP
connection on the runtime's asyncio loop.  ``connect`` returns both ends
at once; the socket comes up in the background, and sends buffer inside
the end until it attaches.  A crash closes the dead end's transport
gracefully (FIN, not RST), so the kernel drains what was already on the
wire before the receiving socket sees EOF and the survivor gets the
break.

Frames are built by :mod:`repro.runtime.codec`: a 4-byte big-endian
length, a version byte, and a record of builtins (registered protocol
types travel as tagged tuples).  :func:`_frame` is the one encoder; a
fan-out may encode once and hand the same bytes to every member's
``send``.  Each socket is driven by one :class:`_FrameProtocol`, a
buffered protocol: the socket is read into one reused buffer, every
complete frame is decoded in place, and each message goes straight into
the receiving end's inbox — no reader task, no coroutine resume per
frame, no allocation per read.  On the server side the
first frame is the channel-id hello that binds the socket to its
channel.  Decoding fails closed: a length header over
:data:`MAX_FRAME_BYTES` (refused before any of its body is buffered), an
unknown version or tag, a global, or a body that raises anything while
decoding breaks the channel exactly like a peer FIN, so both ends see
``ChannelClosed`` behind the frames already delivered.

Each in-flight frame holds a runtime I/O token so ``run()`` treats
wire-buffered data exactly like the simulator treats in-flight
``call_at`` hops; the receiver releases it right after the put, and a
break releases every token still held for frames that will never land.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Optional

from repro.net.network import BREAK, Channel, ChannelEnd, Host, Network
from repro.runtime import codec

#: Largest frame body a receiver accepts; a longer length header breaks
#: the channel before any of the body is buffered.  The largest frame
#: measured is a donor's state transfer, which travels as one frame: a
#: whole-log delta of 709 334 bytes (a full state transfer is 335 716)
#: after one 10 s ``wall-update`` episode.  Protocol traffic stays far
#: below that: at most 749 bytes (an ``ExecuteResp`` on ``wall-tpcw``;
#: a writeset ``Message`` there is at most 723) across the test suite
#: and the benchmark workloads.  32 MiB is 47x the largest.
MAX_FRAME_BYTES = 32 << 20

#: Size of the buffer each socket is read into.  A read of asyncio's
#: default size (256 KiB) allocates above glibc's default mmap threshold,
#: so every read would cost an mmap, a munmap and page faults; one
#: reused buffer costs none.  64 KiB holds every protocol frame with room
#: to spare; only a state transfer grows it.
BUFFER_BYTES = 64 << 10

_LENGTH = struct.Struct(">I")

#: the one encoder: ``obj`` as a whole frame, length header included
_frame = codec.frame


async def _read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one frame off a stream.

    Nothing in the package calls this any more — sockets are parsed by
    :class:`_FrameProtocol` — it stays only as an entry point the
    outside-in benchmark tracer resolves by name, until ROADMAP 6b
    replaces that tracer with native counters and removes it.
    """
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    return codec.unframe(await reader.readexactly(length))


class _FrameProtocol(asyncio.BufferedProtocol):
    """One socket's receive side: complete frames go straight to an inbox.

    The socket is read into one reused buffer of :data:`BUFFER_BYTES`,
    and frames are decoded in place from it.  Received bytes fill
    ``[_start, _end)``; unparsed bytes move to the front only when the
    buffer is full, and a frame longer than the buffer gets a buffer of
    its own, dropped for the base one once the frame is consumed.

    A client socket is bound to its end from the start; a server socket
    learns its end from the first frame, the channel-id hello.
    """

    def __init__(self, host: "TcpHost", end: Optional["TcpChannelEnd"] = None):
        self.host = host
        self.end = end
        self.transport: Optional[asyncio.Transport] = None
        self._base = self._buf = memoryview(bytearray(BUFFER_BYTES))
        #: first unparsed byte, and one past the last received byte
        self._start = self._end = 0

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buf[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        buf = self._buf
        pos, end = self._start, self._end + nbytes
        while end - pos >= 4:
            (length,) = _LENGTH.unpack_from(buf, pos)
            if length > MAX_FRAME_BYTES:
                self._shut()
                return
            stop = pos + 4 + length
            if stop > end:
                break
            try:
                message = codec.unframe(buf[pos + 4:stop])
            except Exception:  # noqa: BLE001 - any undecodable frame breaks the channel
                self._shut()
                return
            pos = stop
            channel_end = self.end
            if channel_end is None:
                if not self._bind(message):
                    return
                continue
            channel_end._deliver(message)
            # deliver-then-release: the resumption this put scheduled is
            # already strong, so the count never transits zero mid-frame
            channel_end.peer._token_release()
        if pos == end:
            self._buf = self._base
            self._start = self._end = 0
        elif end < len(buf):
            self._start, self._end = pos, end
        else:
            self._make_room(pos, end)

    def _make_room(self, pos: int, end: int) -> None:
        """The buffer is full: move the incomplete frame at ``pos`` to the
        front, into a buffer of its own when it is longer than the base."""
        rest = end - pos
        need = 4 + _LENGTH.unpack_from(self._buf, pos)[0] if rest >= 4 else 4
        target = self._base if need <= BUFFER_BYTES else memoryview(bytearray(need))
        target[:rest] = self._buf[pos:end]
        self._buf, self._start, self._end = target, 0, rest

    def _bind(self, chan_id: Any) -> bool:
        """Server side: attach the socket to the channel its hello names."""
        host = self.host
        channel = (
            host.network._handshakes.pop(chan_id, None)
            if isinstance(chan_id, int)
            else None
        )
        if channel is None or not host.alive:
            self.transport.close()
            return False
        self.end = channel.server_end
        return channel._attach(self.end, self.transport)

    def _shut(self) -> None:
        """EOF, a lost connection or an undecodable frame: the break."""
        if self.end is not None:
            self.end.channel._on_eof(self.end)
        else:
            self.transport.close()

    def eof_received(self) -> None:
        self._shut()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._shut()


class TcpNetwork(Network):
    """The state machine over real sockets: a listener per host."""

    def __init__(self, runtime):
        super().__init__(runtime)
        self.latency = None  # the wire is the latency model here
        #: ``sim`` under the name the per-frame methods use
        self.runtime = runtime
        #: channels awaiting their server-side socket, keyed by hello id
        self._handshakes: dict[int, TcpChannel] = {}
        runtime.add_closer(self._close_all)

    def connect(self, client: "TcpHost", server_address: str) -> "TcpChannel":
        channel = super().connect(client, server_address)
        self._handshakes[channel.id] = channel
        self.runtime.spawn_task(channel._establish())
        return channel

    def _close_all(self) -> None:
        """Runtime-stop closer: free every listening socket and transport."""
        for host in list(self.hosts.values()):
            host._went_down()
        for host in list(self.hosts.values()):
            for channel in list(host.channels):
                channel._break()
        self._handshakes.clear()


class TcpHost(Host):
    """A network attachment point backed by a loopback listening socket."""

    def __init__(self, network: TcpNetwork, address: str):
        super().__init__(network, address)
        self._server: Optional[asyncio.base_events.Server] = None
        self._port: asyncio.Future = network.runtime._loop.create_future()
        network.runtime.spawn_task(self._serve())

    async def _serve(self) -> None:
        try:
            self._server = await self.network.runtime._loop.create_server(
                lambda: _FrameProtocol(self), "127.0.0.1", 0
            )
        except OSError:
            pass
        if self._server is None or not self.alive or self._port.done():
            self._went_down()  # no listener, or it came up too late
        else:
            self._port.set_result(self._server.sockets[0].getsockname()[1])

    def _went_down(self) -> None:
        """Close the listener; connects still waiting for its port fail."""
        if self._server is not None:
            self._server.close()
            self._server = None
        if not self._port.done():
            self._port.set_result(None)


class TcpChannel(Channel):
    """Reliable FIFO duplex pipe carried by one loopback TCP connection."""

    def __init__(self, network: TcpNetwork, client: TcpHost, server: TcpHost):
        super().__init__(network, client, server)
        #: crash teardown: late socket establishment is refused outright
        #: (an orderly close still flushes buffered frames first)
        self._refuse = False

    async def _establish(self) -> None:
        client_host = self.client_end.host
        server_host = self.server_end.host
        try:
            port = await server_host._port
        except Exception:  # noqa: BLE001 - any failure means no socket
            port = None
        if (
            port is None
            or self._refuse
            or not server_host.alive
            or not client_host.alive
        ):
            self.network._handshakes.pop(self.id, None)
            self._fail_establish()
            return
        try:
            transport, _ = await self.network.runtime._loop.create_connection(
                lambda: _FrameProtocol(client_host, self.client_end),
                "127.0.0.1",
                port,
            )
        except OSError:
            self.network._handshakes.pop(self.id, None)
            self._fail_establish()
            return
        transport.write(_frame(self.id))
        self._attach(self.client_end, transport)

    def _attach(self, end: "TcpChannelEnd", transport) -> bool:
        """Bind the real socket to ``end`` and flush its buffered sends;
        False when a crash refused the socket instead."""
        if self._refuse:
            transport.close()
            end._end_of_stream()
            return False
        end._transport = transport
        buffered, end._buffer = end._buffer, None
        for frame_bytes in buffered:
            transport.write(frame_bytes)
        if self.broken:
            # orderly close raced establishment: FIN behind the flush so
            # the peer still drains the buffered frames first
            transport.close()
        return True

    def _fail_establish(self) -> None:
        """The socket never came up: synthesize the break on both ends."""
        self.broken = True
        self._detach_hosts()
        self.client_end._end_of_stream()
        self.server_end._end_of_stream()

    def _break(self, crashed: Optional[TcpHost] = None) -> None:
        """Crash teardown: FIN attached transports, synthesize the rest.

        Graceful close (not RST) is what preserves the simulator's
        "break notice travels behind in-flight data" guarantee — the
        peer's socket delivers everything already written before hitting
        EOF and delivering :data:`BREAK`.
        """
        if self._refuse:
            return
        self.broken = True
        self._refuse = True
        self.network._handshakes.pop(self.id, None)
        self._detach_hosts()
        for end in (self.client_end, self.server_end):
            if end._transport is not None:
                _safe_close(end._transport)
            else:
                # no socket on this side, so no EOF will ever arrive:
                # deliver the in-band break (and free its peer's tokens)
                end._end_of_stream()

    def _on_eof(self, end: "TcpChannelEnd") -> None:
        """``end``'s socket reached EOF, was lost, or sent a bad frame."""
        self.broken = True
        self._detach_hosts()
        if end._transport is not None:
            _safe_close(end._transport)
        end._end_of_stream()

    def close(self) -> None:
        """Orderly local close: flush, FIN, both ends see a break."""
        if self.broken:
            return
        self.broken = True
        self._detach_hosts()
        for end in (self.client_end, self.server_end):
            if end._transport is not None:
                _safe_close(end._transport)
            # unattached ends flush-and-FIN when _attach runs (or break
            # via _fail_establish if the socket never comes up)


def _safe_close(transport) -> None:
    try:
        transport.close()
    except RuntimeError:  # pragma: no cover - loop already closed
        pass


class TcpChannelEnd(ChannelEnd):
    """A channel end whose sends are written to its socket, or buffered
    until the socket attaches."""

    def __init__(self, channel: TcpChannel, host: TcpHost, peer_host: TcpHost):
        super().__init__(channel, host, peer_host)
        self._transport: Optional[asyncio.Transport] = None
        #: frames sent before the transport attached
        self._buffer: Optional[list[bytes]] = []
        #: frames this end has sent that the peer has not yet received;
        #: each holds a strong I/O token on the runtime
        self._outstanding = 0
        self._eof = False

    # -- sending ----------------------------------------------------------------

    def send(self, message: Any, frame: Optional[bytes] = None) -> None:
        """Write ``message`` to the peer (buffered until the socket is up).

        ``frame`` is ``message`` already encoded by :func:`_frame`, for a
        sender that writes one message to several peers.  Sends on a
        broken channel are silently dropped, matching the simulated
        network (and writes racing a dead TCP peer).
        """
        if self.channel.broken or not self.peer_host.alive:
            return
        frame_bytes = _frame(message) if frame is None else frame
        self._outstanding += 1
        self.channel.network.runtime._io_begin()
        if self._buffer is not None:
            self._buffer.append(frame_bytes)
        else:
            try:
                self._transport.write(frame_bytes)
            except (RuntimeError, OSError):
                pass  # racing teardown; tokens freed by the break path

    def _token_release(self) -> None:
        if self._outstanding > 0:
            self._outstanding -= 1
            self.channel.network.runtime._io_end()

    def _release_all(self) -> None:
        while self._outstanding > 0:
            self._token_release()

    # -- receiving ---------------------------------------------------------------

    def _end_of_stream(self) -> None:
        """Terminal edge of this end: free peer tokens, queue the break."""
        if self._eof:
            return
        self._eof = True
        self.peer._release_all()
        if self.host.alive and not self._closed:
            self._inbox.put(BREAK)

    # the benchmark's tracer patches this class's own ``recv`` by name
    recv = ChannelEnd.recv


TcpNetwork.host_type, TcpNetwork.channel_type = TcpHost, TcpChannel
TcpChannel.end_type = TcpChannelEnd
