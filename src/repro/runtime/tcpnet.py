"""Loopback TCP sockets as the transport of :mod:`repro.net.network`.

:class:`TcpNetwork`, :class:`TcpHost`, :class:`TcpChannel` and
:class:`TcpChannelEnd` subclass the channel state machine of
:mod:`repro.net.network`, which states the contract they keep; every
channel is a loopback TCP connection of non-blocking sockets on the
:class:`~repro.runtime.wall.WallRuntime`'s selector.  A host listens
from the moment it is built.  ``connect`` returns both ends at once: the
client socket's ``connect_ex`` completes on write-ready, its sends queue
behind the channel-id hello until then, and the server end buffers its
sends until the hello binds the accepted socket to it.  A crash or a
close flushes, then sends FIN (not RST), so the peer reads what was
already on the wire before EOF gives it the break.

Frames are built by :mod:`repro.runtime.codec` (a 4-byte big-endian
length, a version byte, a record of builtins); :func:`_frame` is the one
encoder, and a fan-out may hand the same bytes to every member's
``send``.  Each socket is one :class:`_Connection`: it writes through
``sock.send``, queueing bytes only on ``EAGAIN``, and decodes every
complete frame in place from one reused read buffer straight into the
receiving end's inbox.  Decoding fails closed: a length header over
:data:`MAX_FRAME_BYTES`, an unknown version or tag, a global, or a body
that raises anything breaks the channel exactly like a peer FIN, so both
ends see ``ChannelClosed`` behind the frames already delivered.

Each frame in flight holds a runtime I/O token, released by the receiver
right after the put, so ``run()`` treats wire-buffered data like the
simulator's in-flight ``call_at`` hops; a closing end's FIN holds one
until the peer reads EOF, and a break frees the tokens of frames that
will never land.
"""

from __future__ import annotations

import socket
import struct
from errno import EINPROGRESS
from selectors import EVENT_READ, EVENT_WRITE
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

#: Size of the buffer each socket is read into.  A fresh buffer per read
#: of 256 KiB would be allocated above glibc's default mmap threshold,
#: so every read would cost an mmap, a munmap and page faults; one
#: reused buffer costs none.  64 KiB holds every protocol frame with room
#: to spare; only a state transfer grows it.
BUFFER_BYTES = 64 << 10

_LENGTH = struct.Struct(">I")

#: the one encoder: ``obj`` as a whole frame, length header included
_frame = codec.frame


async def _read_frame(reader: Any) -> Any:
    """Read one frame off a stream with an awaitable ``readexactly``.

    Nothing calls this (sockets are parsed by :class:`_Connection`); it
    stays as a name the outside-in benchmark tracer resolves, until
    ROADMAP 6b replaces that tracer with native counters.
    """
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    return codec.unframe(await reader.readexactly(length))


def _nodelay(sock: socket.socket) -> socket.socket:
    sock.setblocking(False)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Connection:
    """One socket on the selector: queued writes and the frame parser.

    The socket is read into one reused buffer of :data:`BUFFER_BYTES`,
    and frames are decoded in place from it.  Received bytes fill
    ``[_start, _end)``; unparsed bytes move to the front only when the
    buffer is full, and a frame longer than the buffer gets a buffer of
    its own, dropped for the base one once the frame is consumed.

    A client socket is bound to its end from the start; a server socket
    learns its end from the first frame, the channel-id hello.
    """

    def __init__(self, host, sock, end=None, connecting: bool = False):
        self.host, self.sock, self.end = host, sock, end
        self._base = self._buf = memoryview(bytearray(BUFFER_BYTES))
        #: first unparsed byte, and one past the last received byte
        self._start = self._end = 0
        #: bytes the kernel has not taken yet (all of them while connecting)
        self._out = bytearray()
        self._connecting = connecting
        #: FIN once ``_out`` is flushed; nothing more is read
        self._closing = False
        self._events = EVENT_WRITE if connecting else EVENT_READ
        if sock is not None:
            self._selector().register(sock, self._events, self._on_event)

    def _selector(self):
        return self.host.network.runtime._selector

    def _watch(self, events: int) -> None:
        if events != self._events:
            self._events = events
            self._selector().modify(self.sock, events, self._on_event)

    def _on_event(self, mask: int) -> None:
        if mask & EVENT_WRITE:
            if self._connecting:
                self._connected()
            else:
                self._flush()
        # the write side may have closed the socket
        if mask & EVENT_READ and self.sock is not None and not self._closing:
            self._read()

    # -- writing ---------------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Send ``data``; what the kernel does not take now is sent on
        write-ready, and so is everything queued behind it."""
        pending = self._out or self._connecting
        self._out += data
        if not pending:
            self._flush()

    def _connected(self) -> None:
        if self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            self.abort()
            self.end.channel._fail_establish()
            return
        self._connecting = False
        self._flush()

    def _flush(self) -> None:
        out = self._out
        if out:
            try:
                del out[:self.sock.send(out)]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                out.clear()  # the peer is gone: the read side reports the break
        if out:
            self._watch(EVENT_WRITE if self._closing else EVENT_READ | EVENT_WRITE)
        elif self._closing:
            self._finish()
        else:
            self._watch(EVENT_READ)

    def close(self) -> None:
        """Orderly close: stop reading, flush what is queued, then FIN."""
        if self.sock is None or self._closing:
            return
        self._closing = True
        if self._connecting:
            self._watch(EVENT_WRITE)
        else:
            self._flush()

    def _finish(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the peer reset the connection first
        self.abort()

    def abort(self) -> None:
        """Close the socket now, dropping anything queued."""
        sock, self.sock = self.sock, None
        if sock is not None:
            self._selector().unregister(sock)
            sock.close()

    # -- reading ---------------------------------------------------------------

    def _read(self) -> None:
        try:
            nbytes = self.sock.recv_into(self._buf[self._end:])
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            nbytes = 0  # a reset: the same break as EOF
        if nbytes:
            self._parse(nbytes)
        else:
            self._shut()

    def _parse(self, nbytes: int) -> None:
        """``nbytes`` more arrived at ``_end``: deliver every whole frame."""
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
        """Server side: attach the socket to the channel its hello names
        and flush the sends its end buffered.  On a channel an orderly
        close already broke, the socket still reads up to the peer's FIN."""
        host = self.host
        channel = (
            host.network._handshakes.pop(chan_id, None)
            if isinstance(chan_id, int)
            else None
        )
        if channel is None or not host.alive:
            self.abort()
            if channel is not None:
                channel._fail_establish()
            return False
        end = self.end = channel.server_end
        end._conn = self
        buffered, end._buffer = end._buffer, None
        for frame_bytes in buffered:
            self.write(frame_bytes)
        return True

    def _shut(self) -> None:
        """EOF, a reset or an undecodable frame: the break."""
        if self.end is not None:
            self.end.channel._on_eof(self.end)
        else:
            self.abort()


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
        channel._establish()
        return channel

    def _close_all(self) -> None:
        """Runtime-stop closer: free every listening socket and channel."""
        for host in list(self.hosts.values()):
            host._went_down()
            for channel in list(host.channels):
                channel._break()
        self._handshakes.clear()


class TcpHost(Host):
    """A network attachment point backed by a loopback listening socket."""

    def __init__(self, network: TcpNetwork, address: str):
        super().__init__(network, address)
        self._listener: Optional[socket.socket] = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self.port: int = self._listener.getsockname()[1]
        network.runtime._selector.register(self._listener, EVENT_READ, self._accept)

    def _accept(self, _mask: int) -> None:
        try:
            sock, _ = self._listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return
        _Connection(self, _nodelay(sock))

    def _went_down(self) -> None:
        """Close the listener: connects to it are refused from now on."""
        listener, self._listener = self._listener, None
        if listener is not None:
            self.network.runtime._selector.unregister(listener)
            listener.close()


class TcpChannel(Channel):
    """Reliable FIFO duplex pipe carried by one loopback TCP connection."""

    def _establish(self) -> None:
        """Start the client socket's connect, the hello queued first."""
        server_host = self.server_end.host
        if server_host._listener is not None:
            sock = _nodelay(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            if sock.connect_ex(("127.0.0.1", server_host.port)) in (0, EINPROGRESS):
                conn = _Connection(self.client_end.host, sock, self.client_end, True)
                conn.write(_frame(self.id))
                self.client_end._conn = conn
                return
            sock.close()
        self._fail_establish()

    def _fail_establish(self) -> None:
        """The socket never came up: synthesize the break on both ends."""
        self.network._handshakes.pop(self.id, None)
        self.broken = True
        self._detach_hosts()
        self.client_end._end_of_stream()
        self.server_end._end_of_stream()

    def _break(self, crashed: Optional[TcpHost] = None) -> None:
        """Crash teardown: FIN attached sockets, synthesize the rest.

        Graceful close (not RST) is what preserves the simulator's
        "break notice travels behind in-flight data" guarantee — the
        peer's socket delivers everything already written before hitting
        EOF and delivering :data:`BREAK`.  Idempotent; a server socket
        that arrives later is refused, even after an orderly close.
        """
        self.broken = True
        self.network._handshakes.pop(self.id, None)
        self._detach_hosts()
        # an end with no socket gets no EOF: its break is delivered in-band
        self.client_end._hang_up()
        self.server_end._hang_up()

    def _on_eof(self, end: "TcpChannelEnd") -> None:
        """``end``'s socket reached EOF, was reset, or sent a bad frame."""
        self.broken = True
        self._detach_hosts()
        end._hang_up()

    def close(self) -> None:
        """Orderly local close: flush, FIN, both ends see a break."""
        if self.broken:
            return
        self.broken = True
        self._detach_hosts()
        for end in (self.client_end, self.server_end):
            if end._conn is not None:  # else it reads to the FIN once bound
                end._hang_up()


class TcpChannelEnd(ChannelEnd):
    """A channel end whose sends are written to its socket, or buffered
    until the socket attaches."""

    def __init__(self, channel: TcpChannel, host: TcpHost, peer_host: TcpHost):
        super().__init__(channel, host, peer_host)
        self._conn: Optional[_Connection] = None
        #: frames sent before the socket attached
        self._buffer: Optional[list[bytes]] = []
        #: frames (and a FIN) this end has sent that the peer has not yet
        #: received; each holds a strong I/O token on the runtime
        self._outstanding = 0
        self._eof = False

    # -- sending ----------------------------------------------------------------

    def send(self, message: Any, frame: Optional[bytes] = None) -> None:
        """Write ``message`` to the peer (buffered until the socket is up);
        ``frame`` is it already encoded by :func:`_frame`, for a fan-out.
        Sends on a broken channel are dropped, as on the simulated network.
        """
        if self.channel.broken or not self.peer_host.alive:
            return
        frame_bytes = _frame(message) if frame is None else frame
        self._outstanding += 1
        self.channel.network.runtime._io_begin()
        conn = self._conn
        if conn is None:
            self._buffer.append(frame_bytes)
        else:
            conn.write(frame_bytes)

    def _token_release(self) -> None:
        if self._outstanding > 0:
            self._outstanding -= 1
            self.channel.network.runtime._io_end()

    def _release_all(self) -> None:
        while self._outstanding > 0:
            self._token_release()

    def _hang_up(self) -> None:
        """Close this end's socket (flush, then FIN) and end its stream;
        the FIN holds an I/O token until the peer's stream ends."""
        conn, self._conn = self._conn, None
        if conn is not None:
            if not self.peer._eof:
                self._outstanding += 1
                self.channel.network.runtime._io_begin()
            conn.close()
        self._end_of_stream()

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
