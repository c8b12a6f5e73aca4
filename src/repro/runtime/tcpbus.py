"""The group communication bus carried over real TCP sockets.

:class:`TcpGroupBus` keeps the sequencer logic of
:class:`repro.gcs.multicast.GroupBus` — total ordering, batching,
reordering, view changes, serial occupancy, the stability watermark —
and swaps the message transport: every member gets a dedicated loopback
TCP channel to the bus host, a multicast travels member→bus as one
:class:`~repro.gcs.multicast.Multicast` frame, and each ordered item
(``Message`` / ``Batch`` / ``ViewChange``) is encoded once and the same
frame is written to every member's channel.  TCP's FIFO replaces the
simulated per-member monotone-delivery clamp; each member decodes its
own *copy* of every ordered item, which is stricter than the
simulator's shared references (replicas correlate by gid, never by
identity).

The membership trick that makes joins race-free: both channel ends
exist in-process the moment ``connect`` returns, so the bus registers
the member's server end *before* dispatching the join view change —
fan-out frames buffer inside the end until the socket attaches, and no
view is ever lost to establishment latency.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import GcsError, NotAMember
from repro.gcs.multicast import (
    GcsConfig,
    GroupBus,
    GroupMember,
    Multicast,
    ViewChange,
)
from repro.net.network import ChannelClosed
from repro.runtime import tcpnet
from repro.runtime.tcpnet import TcpChannelEnd, TcpNetwork


class TcpGroupMember(GroupMember):
    """A member handle whose multicasts travel over its TCP channel."""

    def __init__(self, bus: "TcpGroupBus", member_id: str, end: TcpChannelEnd):
        super().__init__(bus, member_id)
        self._end = end
        self._gcs_host = end.host

    def multicast(self, payload: Any, batchable: bool = False) -> None:
        if not self.alive:
            raise NotAMember(f"{self.member_id!r} is not in the view")
        self._end.send(Multicast(payload, batchable, self.bus.sim.now))


class TcpGroupBus(GroupBus):
    """The sequencer reached over loopback TCP instead of simulated hops."""

    def __init__(
        self,
        runtime,
        config: Optional[GcsConfig] = None,
        network: Optional[TcpNetwork] = None,
        rng_stream: str = "gcs",
        rng=None,
        address: Optional[str] = None,
    ):
        super().__init__(runtime, config=config, rng_stream=rng_stream, rng=rng)
        if network is None:
            network = TcpNetwork(runtime)
        self.network = network
        self.host = network.register(address or network.unique_address("gcs-bus"))
        #: bus-side channel end per member, the fan-out target
        self._member_ends: dict[str, TcpChannelEnd] = {}

    # -- membership -------------------------------------------------------------

    def join(self, member_id: str) -> TcpGroupMember:
        """Add a member over a fresh TCP channel and announce the view."""
        if member_id in self._members and self._members[member_id].alive:
            raise GcsError(f"member {member_id!r} already joined")
        self._flush_batch()  # the view must be ordered behind held payloads
        client_host = self.network.register(f"{member_id}.gcs")
        channel = self.network.connect(client_host, self.host.address)
        member = TcpGroupMember(self, member_id, channel.client_end)
        self._members[member_id] = member
        self._member_ends[member_id] = channel.server_end
        self.sim.spawn(
            self._bus_recv(member, channel.server_end),
            name=f"gcs-rx-{member_id}",
            daemon=True,
        )
        self.sim.spawn(
            self._member_pump(member, channel.client_end),
            name=f"gcs-dl-{member_id}",
            daemon=True,
        )
        self.view_id += 1
        view = ViewChange(
            seq=next(self._seq),
            view_id=self.view_id,
            members=self.members,
            joined=(member_id,),
        )
        self._dispatch(view)
        return member

    def crash(self, member_id: str) -> None:
        member = self._members.get(member_id)
        if member is None or not member.alive:
            return
        # base class: mark dead, stability bookkeeping, failure-detector
        # timer for the view change (real seconds on this runtime)
        super().crash(member_id)
        self._member_ends.pop(member_id, None)
        host = getattr(member, "_gcs_host", None)
        if host is not None and host.alive:
            self.network.crash(host.address)

    # -- transport --------------------------------------------------------------

    def _bus_recv(self, member: TcpGroupMember, end: TcpChannelEnd):
        """Bus-side pump: sequence each multicast frame as it arrives."""
        while True:
            try:
                multicast = yield from end.recv()
            except ChannelClosed:
                return
            if isinstance(multicast, Multicast):
                self._sequence(
                    member, multicast.payload, multicast.batchable,
                    multicast.sent_at,
                )

    def _member_pump(self, member: TcpGroupMember, end: TcpChannelEnd):
        """Member-side pump: ordered items off the wire into the inbox."""
        while True:
            try:
                item = yield from end.recv()
            except ChannelClosed:
                return
            self._deliver(member, item)

    def _fanout(self, item: Any, extra_delay: float) -> None:
        # TCP's per-channel FIFO is the monotone-delivery guarantee the
        # simulated clamp provides; extra_delay (sequencer occupancy) was
        # already applied by _dispatch's call_at.  The item is encoded
        # once, on the first live member, and every send writes those bytes.
        frame = None
        for member_id, member in self._members.items():
            if not member.alive:
                continue
            end = self._member_ends.get(member_id)
            if end is not None:
                if frame is None:
                    frame = tcpnet._frame(item)
                end.send(item, frame)
