"""Total order, uniform reliable multicast via a sequencer bus.

The bus is a *model* of the agreement protocol, not a reimplementation of
Spread: a message becomes **stable** the instant the sequencer orders it
(after the sender->bus hop), and a stable message is delivered to every
live member.  This yields the two properties the paper relies on:

* if the sender crashes before its message reaches the bus, nobody ever
  delivers it (driver failover case 3a);
* once sequenced, *everyone* alive delivers it in sequence order, and a
  crash's view change is sequenced *behind* all earlier messages, so "a
  member either receives the writeset before being informed about the
  crash, or not at all" (§5.4).

Latency is calibrated to the paper's Spread numbers: a uniform reliable
multicast costs a few milliseconds on a LAN (§5.2 reports <= 3 ms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

from repro.conflictindex import conflict_degrees
from repro.errors import GcsError, NotAMember
from repro.sim import Queue, Simulator


@dataclass(frozen=True)
class GcsConfig:
    """Tunable delays of the group communication system.

    ``sender_to_bus`` models the sender->sequencer hop; ``bus_to_member``
    the ordered delivery fan-out (so one multicast costs their sum, ~1.5 ms
    by default, within the paper's <=3 ms envelope).  ``jitter`` adds a
    uniform random component to each hop.  ``crash_detection`` is the
    failure-detector timeout before a view change is issued — "up to a
    couple of seconds depending on the timeout interval" (§5.2).

    Batching (off by default): with ``batch_max_messages > 1`` the
    sequencer holds batchable payloads that have reached the bus and
    sequences them as one :class:`Batch` — flushed when the batch fills
    or ``batch_window`` elapses after the first held payload, whichever
    comes first.  Each entry keeps its own sequence number; only the
    fan-out hop is shared.  ``bus_service_time`` is the sequencer's
    per-multicast protocol cost (token work, framing): the bus is a
    serial server, so it bounds ordered deliveries per second — a batch
    occupies it once, which is exactly the amortisation batching buys.
    """

    sender_to_bus: float = 0.0008
    bus_to_member: float = 0.0007
    #: a constant, not a knob: no deployment sets it (tests override it
    #: on the class)
    jitter: ClassVar[float] = 0.0002
    crash_detection: float = 0.5
    #: >1 enables writeset batching; a batch never exceeds this many entries
    batch_max_messages: int = 1
    #: max time the first held payload waits for the batch to fill
    batch_window: float = 0.0005
    #: serial sequencer occupancy per ordered fan-out (0 = free sequencer)
    bus_service_time: float = 0.0
    #: conflict-aware reordering of each batch *before* sequence numbers
    #: are assigned: non-conflicting writesets commute forward so a
    #: high-conflict-degree entry cannot kill several independents
    reorder: bool = False
    #: scale the batch window with the bus's contention signal (set by
    #: the cluster from its abort-rate/hole-depth gauges)
    adaptive_window: bool = False
    #: adaptive window range; idle clusters flush near ``batch_window_min``,
    #: contended ones hold batches open up to ``batch_window_max``
    batch_window_min: float = 0.0005
    batch_window_max: float = 0.02


@dataclass(frozen=True)
class Multicast:
    """A payload on its way from a member to the sequencer.

    The simulated bus carries the sender→bus hop in a timer closure; a
    bus reached over a channel (``repro.runtime.tcpbus``) sends this
    record instead.
    """

    payload: Any
    batchable: bool
    sent_at: float


@dataclass(frozen=True)
class Message:
    """A totally ordered multicast delivery.

    ``sent_at``/``sequenced_at`` stamp the sender-side multicast call and
    the sequencing instant (sim time): consumers that trace the GCS path
    (repro.obs.trace) split delivery latency into sequencing wait vs
    fan-out without extra bookkeeping.
    """

    seq: int
    sender: str
    payload: Any
    view_id: int
    sent_at: float = 0.0
    sequenced_at: float = 0.0


@dataclass(frozen=True)
class Batch:
    """Several totally ordered deliveries fanned out as one unit.

    Entries are **individually ordered**: each carries its own ``seq``
    from the shared sequence counter, so consumers (certification, hole
    tracking) treat them exactly as if they had been delivered one by
    one — the batch only amortises the sequencer/fan-out hops.
    """

    entries: tuple[Message, ...]
    view_id: int
    #: when the first held payload reached the sequencer
    opened_at: float
    #: when the batch was sequenced (flushed)
    sequenced_at: float

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ViewChange:
    """Membership notification, delivered in total order like a message."""

    seq: int
    view_id: int
    members: tuple[str, ...]
    crashed: tuple[str, ...] = field(default_factory=tuple)
    joined: tuple[str, ...] = field(default_factory=tuple)


class GroupMember:
    """One endpoint's handle on the group: an inbox plus ``multicast``."""

    def __init__(self, bus: "GroupBus", member_id: str):
        self.bus = bus
        self.member_id = member_id
        self.inbox: Queue = Queue(name=f"gcs({member_id})")
        self.alive = True
        self._last_delivery = 0.0
        #: highest log sequence this member has made durable; piggybacked
        #: on its outgoing traffic for the stability watermark
        self.durable_seq = 0

    def ack_durable(self, seq: int) -> None:
        """Record local log durability up to ``seq``.

        The ack rides on the member's next multicast (no extra message)
        and is also pushed straight to the bus's stability tracker, so a
        quiet member still advances the watermark.
        """
        self.durable_seq = max(self.durable_seq, seq)
        if self.bus.stability is not None and self.alive:
            self.bus.stability.ack(self.member_id, self.durable_seq)

    def multicast(self, payload: Any, batchable: bool = False) -> None:
        """Uniform reliable total order multicast to the whole group.

        ``batchable`` marks hot-path payloads (writesets) the sequencer
        may pack into a :class:`Batch`; control traffic (DDL, sync
        markers) stays unbatched so its ordering logic is untouched.
        """
        self.bus._multicast(self, payload, batchable)

    def deliver(self):
        """Awaitable: next :class:`Message` or :class:`ViewChange`."""
        return self.inbox.get()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<GroupMember {self.member_id} {state}>"


class GroupBus:
    """The sequencer: joins, total ordering, uniform delivery, crashes."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[GcsConfig] = None,
        rng_stream: str = "gcs",
        rng=None,
    ):
        # ``rng_stream`` keeps multiple buses on one simulator (a sharded
        # deployment runs one bus per replication group) statistically
        # independent: each draws jitter from its own named stream.  An
        # explicit ``rng`` overrides the stream lookup so conformance
        # harnesses can inject one seeded source end-to-end.
        self.sim = sim
        self.config = config or GcsConfig()
        self._rng = rng if rng is not None else sim.rng(rng_stream)
        self._members: dict[str, GroupMember] = {}
        self._seq = itertools.count(1)
        self.view_id = 0
        #: delivered ENTRIES (a batch of k counts k, not 1) — dashboards
        #: built on this stay correct under batching
        self.delivered_count = 0
        self.delivered_batches = 0
        #: sequencer-side batching state: (sender, payload, sent_at)
        self._batch_buffer: list[tuple[GroupMember, Any, float]] = []
        self._batch_epoch = 0
        self._batch_opened_at = 0.0
        #: serial sequencer occupancy (bus_service_time accounting)
        self._busy_until = 0.0
        self.sequenced_batches = 0
        self.batched_entries = 0
        #: batches whose sequencing order differs from arrival order /
        #: entries that moved — the reorder engine's win counters
        self.reordered_batches = 0
        self.reordered_entries = 0
        #: optional 0..1 callable sampled when a batch opens; the cluster
        #: wires its abort/hole gauges here for adaptive windows
        self.contention_signal = None
        #: last batch window actually used (gauge)
        self.current_window = self.config.batch_window
        #: optional repro.durable.watermark.StabilityTracker; when set,
        #: sequencing piggybacks each sender's durable_seq ack onto the
        #: traffic it was already sending
        self.stability = None

    @property
    def batching(self) -> bool:
        return self.config.batch_max_messages > 1

    @property
    def mean_batch_size(self) -> float:
        if self.sequenced_batches == 0:
            return 0.0
        return self.batched_entries / self.sequenced_batches

    # -- membership -------------------------------------------------------------

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(mid for mid, m in self._members.items() if m.alive)

    def join(self, member_id: str) -> GroupMember:
        """Add a member and announce the new view to everyone.

        The paper performs recovery/joining offline; we likewise expect
        joins before transaction processing starts, but announce a view so
        members can track membership uniformly.
        """
        if member_id in self._members and self._members[member_id].alive:
            raise GcsError(f"member {member_id!r} already joined")
        self._flush_batch()  # the view must be ordered behind held payloads
        member = GroupMember(self, member_id)
        self._members[member_id] = member
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
        """Mark a member crashed.

        The member stops delivering immediately; its un-sequenced messages
        are lost.  Survivors receive the view change once the failure
        detector fires (``crash_detection`` later), sequenced *behind*
        every message ordered in the meantime — exactly the "writeset
        before crash notification, or not at all" guarantee of §5.4.
        """
        member = self._members.get(member_id)
        if member is None or not member.alive:
            return
        member.alive = False
        if self.stability is not None:
            self.stability.crash(member_id)
        self.sim.call_at(
            self.sim.now + self.config.crash_detection,
            lambda: self._issue_view_change(crashed=(member_id,)),
        )

    def _issue_view_change(self, crashed: tuple[str, ...]) -> None:
        # Payloads already at the sequencer are ordered ahead of the view
        # change, preserving §5.4's "writeset before crash notification"
        # for everything that reached the bus before the detector fired.
        self._flush_batch()
        self.view_id += 1
        view = ViewChange(
            seq=next(self._seq),
            view_id=self.view_id,
            members=self.members,
            crashed=crashed,
        )
        self._dispatch(view)

    # -- multicast ---------------------------------------------------------------

    def _multicast(self, sender: GroupMember, payload: Any, batchable: bool) -> None:
        if not sender.alive:
            raise NotAMember(f"{sender.member_id!r} is not in the view")
        hop = self.config.sender_to_bus + self._rng.random() * self.config.jitter
        sent_at = self.sim.now
        # The message becomes stable (sequenced) only when it reaches the
        # bus; if the sender dies first the cluster-level crash handler has
        # already marked it dead and _sequence drops the message.
        self.sim.call_at(
            sent_at + hop,
            lambda: self._sequence(sender, payload, batchable, sent_at),
        )

    def _sequence(
        self, sender: GroupMember, payload: Any, batchable: bool, sent_at: float
    ) -> None:
        if not sender.alive:
            return  # lost with the sender: never sequenced, never delivered
        if self.stability is not None:
            self.stability.ack(sender.member_id, sender.durable_seq)
        if batchable and self.batching:
            if not self._batch_buffer:
                self._batch_opened_at = self.sim.now
                epoch = self._batch_epoch
                self.sim.call_at(
                    self.sim.now + self._window(),
                    lambda: self._flush_batch(epoch),
                )
            self._batch_buffer.append((sender, payload, sent_at))
            if len(self._batch_buffer) >= self.config.batch_max_messages:
                self._flush_batch()
            return
        # Unbatchable traffic is ordered behind every payload already held
        # at the sequencer, exactly as if those had been sequenced on
        # arrival — arrival order at the bus IS the total order.
        self._flush_batch()
        message = Message(
            seq=next(self._seq),
            sender=sender.member_id,
            payload=payload,
            view_id=self.view_id,
            sent_at=sent_at,
            sequenced_at=self.sim.now,
        )
        self._dispatch(message)

    def _flush_batch(self, epoch: Optional[int] = None) -> None:
        """Sequence the held payloads as one :class:`Batch`.

        ``epoch`` guards the window timer: a size- or control-triggered
        flush bumps the epoch, so a stale timer firing later is a no-op
        for the buffer opened after it.
        """
        if epoch is not None and epoch != self._batch_epoch:
            return
        self._batch_epoch += 1
        if not self._batch_buffer:
            return
        buffer, self._batch_buffer = self._batch_buffer, []
        live = [
            (sender, payload, sent_at)
            for sender, payload, sent_at in buffer
            if sender.alive
        ]
        if not live:
            return  # every held payload died with its sender: never sequenced
        if self.config.reorder and len(live) > 1:
            live = self._reorder(live)
        entries = tuple(
            Message(
                seq=next(self._seq),
                sender=sender.member_id,
                payload=payload,
                view_id=self.view_id,
                sent_at=sent_at,
                sequenced_at=self.sim.now,
            )
            for sender, payload, sent_at in live
        )
        batch = Batch(
            entries=entries,
            view_id=self.view_id,
            opened_at=self._batch_opened_at,
            sequenced_at=self.sim.now,
        )
        self.sequenced_batches += 1
        self.batched_entries += len(entries)
        self._dispatch(batch)

    def _window(self) -> float:
        """Batch window for the buffer being opened now.

        With ``adaptive_window`` on and a contention signal wired, the
        window scales linearly across ``[batch_window_min,
        batch_window_max]`` with the signal (clamped to 0..1): idle
        clusters flush almost immediately, contended ones hold batches
        open so the reorder/salvage machinery sees more commutable
        entries per flush.
        """
        cfg = self.config
        if not cfg.adaptive_window or self.contention_signal is None:
            return cfg.batch_window
        signal = min(1.0, max(0.0, float(self.contention_signal())))
        self.current_window = cfg.batch_window_min + signal * (
            cfg.batch_window_max - cfg.batch_window_min
        )
        return self.current_window

    def _reorder(
        self, live: list[tuple[GroupMember, Any, float]]
    ) -> list[tuple[GroupMember, Any, float]]:
        """Deterministically reorder a batch *before* sequencing.

        Runs at the sequencer — the single ordering point — so the result
        simply IS the total order; every replica certifies the same
        permutation.  Entries are sorted by (in-batch conflict degree
        ascending, cert descending, arrival index): independents go
        first so one hub writeset cannot kill several of them, and among
        conflicting peers the freshest snapshot wins.  Arrival index
        breaks all remaining ties, so the permutation is a pure function
        of batch content.

        Payloads stay opaque but for one method: a writeset's
        ``conflict_info()`` returns its ``(keys, cert)``.  A batch that
        holds any payload without one keeps arrival order — correctness
        first.
        """
        getters = [getattr(payload, "conflict_info", None) for _, payload, _ in live]
        if any(get is None for get in getters):
            return live  # non-writeset traffic in the batch: keep arrival order
        infos = [get() for get in getters]
        keysets = [info[0] for info in infos]
        # one postings pass instead of the pairwise isdisjoint matrix;
        # identical numbers, so identical layouts (the reorder-equivalence
        # suite pins this)
        degree = conflict_degrees(keysets)
        order = sorted(
            range(len(live)),
            key=lambda i: (degree[i], -infos[i][1], i),
        )
        moved = sum(1 for pos, i in enumerate(order) if pos != i)
        if moved:
            self.reordered_batches += 1
            self.reordered_entries += moved
        return [live[i] for i in order]

    def _dispatch(self, item: Any) -> None:
        """Fan out through the serial sequencer.

        Every ordered item (message, batch, view change) passes through
        the same occupancy window, so fan-outs happen in sequence order
        even when ``bus_service_time`` defers some of them.  A batch
        occupies the sequencer once regardless of its size.
        """
        service = (
            self.config.bus_service_time if not isinstance(item, ViewChange) else 0.0
        )
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + service
        if self._busy_until <= self.sim.now:
            self._fanout(item, extra_delay=0.0)
        else:
            self.sim.call_at(
                self._busy_until, lambda: self._fanout(item, extra_delay=0.0)
            )

    def _fanout(self, item: Any, extra_delay: float) -> None:
        for member in self._members.values():
            if not member.alive:
                continue
            hop = (
                self.config.bus_to_member
                + self._rng.random() * self.config.jitter
                + extra_delay
            )
            # Clamp to keep per-member delivery monotone in sequence order.
            target = max(self.sim.now + hop, member._last_delivery)
            member._last_delivery = target
            self.sim.call_at(target, lambda m=member, it=item: self._deliver(m, it))

    def _deliver(self, member: GroupMember, item: Any) -> None:
        if not member.alive:
            return
        if isinstance(item, Batch):
            self.delivered_count += len(item)
            self.delivered_batches += 1
        else:
            self.delivered_count += 1
        member.inbox.put(item)
