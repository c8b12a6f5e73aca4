"""The channel state machine: hosts, reliable FIFO duplex channels, crashes.

The client driver talks JDBC to a middleware replica over a
:class:`Channel`.  Every network in the package runs the classes of this
module, and every one keeps the same contract:

* delivery is reliable and FIFO in each direction;
* ``send`` on a broken channel, or to a dead host, is silently dropped;
* ``connect`` raises :class:`ChannelClosed` at once when the server is
  missing or dead, and otherwise returns both ends at once, the server
  end landing in ``Host.accept()``;
* when a host crashes, every channel touching it *breaks*: the survivor
  receives :class:`ChannelClosed` behind the messages the dead host had
  already put on the wire, and ``recv`` keeps raising after that.  This
  is what lets the driver implement the transparent failover of paper
  §5.4.

These classes carry messages over simulated hops of a
:class:`LatencyModel`.  :mod:`repro.runtime.tcpnet` subclasses all four
and replaces only the transport (``send``, the break, ``close``) with
loopback TCP sockets.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.errors import ReproError
from repro.sim import Queue, Simulator


class ChannelClosed(ReproError):
    """The peer host crashed (or the channel was closed locally)."""


class LatencyModel:
    """Per-hop one-way delay: ``base`` plus uniform jitter in [0, jitter].

    Jitter is always drawn from an injectable seeded RNG — there is no
    module-level fallback and no silent jitter drop, so a sim run is
    exactly reproducible from ``(seed, stream)`` and comparable against a
    wall-clock run of the same workload.  :class:`Network` binds
    ``sim.rng("net")`` automatically if the model arrives unbound.
    """

    def __init__(self, base: float = 0.0002, jitter: float = 0.0001, rng=None):
        self.base = base
        self.jitter = jitter
        self._rng = rng

    def bind_rng(self, rng) -> None:
        """Late-bind the jitter RNG (no-op if one is already bound)."""
        if self._rng is None:
            self._rng = rng

    def sample(self) -> float:
        if self.jitter <= 0:
            return self.base
        if self._rng is None:
            raise ReproError(
                "LatencyModel with jitter > 0 has no RNG bound; pass "
                "rng=sim.rng('net') (or attach the model to a Network)"
            )
        return self.base + self._rng.random() * self.jitter


class Network:
    """Registry of hosts plus the crash switchboard."""

    #: what :meth:`register` and :meth:`connect` build (bound at the end)
    host_type: type[Host]
    channel_type: type[Channel]

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.latency.bind_rng(sim.rng("net"))
        self.hosts: dict[str, Host] = {}
        self._label_counts: dict[str, int] = {}

    def unique_address(self, prefix: str = "client") -> str:
        """A fresh, never-registered address ``f"{prefix}-{n}"``.

        Allocation lives on the network (not on each cluster) so that
        several clusters sharing one LAN — a sharded deployment — never
        hand out colliding client addresses.
        """
        count = self._label_counts.get(prefix, 0)
        while True:
            count += 1
            address = f"{prefix}-{count}"
            if address not in self.hosts:
                break
        self._label_counts[prefix] = count
        return address

    def register(self, address: str) -> "Host":
        existing = self.hosts.get(address)
        if existing is not None and existing.alive:
            raise ReproError(f"duplicate host address {address!r}")
        # A dead host's address may be reused (a recovered replica comes
        # back under its old identity).
        host = self.host_type(self, address)
        self.hosts[address] = host
        return host

    def host(self, address: str) -> "Host":
        return self.hosts[address]

    def connect(self, client: "Host", server_address: str) -> "Channel":
        """Open a duplex channel; the server side lands in ``accept()``."""
        server = self.hosts.get(server_address)
        if server is None or not server.alive or not client.alive:
            raise ChannelClosed(f"cannot connect to {server_address!r}")
        channel = self.channel_type(self, client, server)
        server._pending.put(channel.server_end)
        return channel

    def crash(self, address: str) -> None:
        """Take a host down: break all of its channels, refuse new ones."""
        host = self.hosts[address]
        if not host.alive:
            return
        host.alive = False
        host._went_down()
        for channel in list(host.channels):
            channel._break(crashed=host)


class Host:
    """A network attachment point; servers accept inbound channels here."""

    def __init__(self, network: Network, address: str):
        self.network = network
        self.address = address
        self.alive = True
        self.channels: list[Channel] = []
        self._pending: Queue = Queue(name=f"accept({address})")

    def accept(self):
        """Awaitable: the server end of the next inbound channel."""
        return self._pending.get()

    def _went_down(self) -> None:
        """The host just crashed; a transport frees what it holds here."""

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.address} {state}>"


class Channel:
    """Reliable FIFO duplex pipe between two hosts."""

    _ids = itertools.count()
    end_type: type[ChannelEnd]  # bound at the end of the module

    def __init__(self, network: Network, client: Host, server: Host):
        self.network = network
        self.id = next(self._ids)
        self.client_end = self.end_type(self, client, server)
        self.server_end = self.end_type(self, server, client)
        self.client_end.peer = self.server_end
        self.server_end.peer = self.client_end
        self.broken = False
        client.channels.append(self)
        server.channels.append(self)

    def _break(self, crashed: Optional[Host] = None) -> None:
        if self.broken:
            return
        self.broken = True
        for end in (self.client_end, self.server_end):
            if end.host is not crashed:
                # The break notice travels behind in-flight data (FIFO), so
                # the survivor drains already-sent messages first.
                end._schedule_break()
        self._detach_hosts()

    def _detach_hosts(self) -> None:
        for end in (self.client_end, self.server_end):
            if self in end.host.channels:
                end.host.channels.remove(self)

    def close(self) -> None:
        """Orderly local close; both ends see the channel as broken."""
        self._break()


class _Break:
    """Sentinel delivered in-band to mark end-of-stream."""

    def __repr__(self) -> str:
        return "<channel-break>"


BREAK = _Break()


class ChannelEnd:
    """One direction pair of a channel: ``send`` to peer, ``recv`` from it."""

    def __init__(self, channel: Channel, host: Host, peer_host: Host):
        self.channel = channel
        self.host = host
        self.peer_host = peer_host
        self.peer: "ChannelEnd" = None  # type: ignore[assignment]
        self._inbox: Queue = Queue(name=f"chan{channel.id}@{host.address}")
        self._last_delivery = 0.0
        self._closed = False

    # -- sending ----------------------------------------------------------------

    def send(self, message: Any) -> None:
        """Queue ``message`` for the peer after one network hop.

        Sends on a broken channel are silently dropped, like writes to a
        dead TCP socket racing the RST.
        """
        if self.channel.broken or not self.peer_host.alive:
            return
        sim = self.host.network.sim
        delay = self.host.network.latency.sample()
        target = max(sim.now + delay, self.peer._last_delivery)
        self.peer._last_delivery = target
        sim.call_at(target, lambda msg=message: self.peer._deliver(msg))

    def _deliver(self, message: Any) -> None:
        if self._closed or not self.host.alive:
            return
        self._inbox.put(message)

    def _schedule_break(self) -> None:
        sim = self.host.network.sim
        delay = self.host.network.latency.sample()
        target = max(sim.now + delay, self._last_delivery)
        self._last_delivery = target
        sim.call_at(target, lambda: self._inbox.put(BREAK))

    # -- receiving ----------------------------------------------------------------

    def recv(self) -> Generator[Any, Any, Any]:
        """Await the next message; raises :class:`ChannelClosed` at break."""
        if self._closed:
            raise ChannelClosed("channel already closed")
        message = yield self._inbox.get()
        if message is BREAK:
            self._closed = True
            raise ChannelClosed(
                f"peer {self.peer_host.address!r} closed the channel"
            )
        return message

    @property
    def closed(self) -> bool:
        return self._closed or self.channel.broken


Network.host_type, Network.channel_type = Host, Channel
Channel.end_type = ChannelEnd
