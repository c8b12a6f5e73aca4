"""Synchronization primitives for simulated processes.

All primitives are FIFO and deterministic: waiters are resumed in the order
they blocked, which keeps whole-cluster runs replayable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import SimulationError
from repro.sim.kernel import Process


class Event:
    """A one-shot (or re-settable) broadcast event carrying a value.

    ``wait()`` returns an awaitable; once :meth:`set` is called every
    current and future waiter resumes with the stored value.
    """

    __slots__ = ("_waiters", "_value", "_is_set")

    def __init__(self) -> None:
        self._waiters: Deque[Process] = deque()
        self._value: Any = None
        self._is_set = False

    @property
    def is_set(self) -> bool:
        return self._is_set

    def set(self, value: Any = None) -> None:
        """Fire the event, waking all waiters with ``value``."""
        self._is_set = True
        self._value = value
        waiters, self._waiters = self._waiters, deque()
        for process in waiters:
            process._schedule_resume(value)

    def throw(self, exc: BaseException) -> None:
        """Fail all waiters with ``exc`` (and future waiters too)."""
        self._is_set = True
        self._value = exc
        waiters, self._waiters = self._waiters, deque()
        for process in waiters:
            process._schedule_throw(exc)

    def wait(self) -> "_EventWait":
        return _EventWait(self)


class _EventWait:
    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event

    def _block(self, process: Process) -> None:
        if self.event._is_set:
            value = self.event._value
            if isinstance(value, BaseException):
                process._schedule_throw(value)
            else:
                process._schedule_resume(value)
        else:
            self.event._waiters.append(process)

    def _cancel(self, process: Process) -> None:
        try:
            self.event._waiters.remove(process)
        except ValueError:
            pass


class Queue:
    """Unbounded FIFO queue: ``put`` never blocks, ``get`` is awaitable."""

    __slots__ = ("_items", "_getters", "name")

    def __init__(self, name: str = "queue"):
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            process = self._getters.popleft()
            process._schedule_resume(item)
        else:
            self._items.append(item)

    def get(self) -> "_QueueGet":
        return _QueueGet(self)

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (diagnostics only)."""
        return list(self._items)


class _QueueGet:
    __slots__ = ("queue",)

    def __init__(self, queue: Queue):
        self.queue = queue

    def _block(self, process: Process) -> None:
        if self.queue._items:
            process._schedule_resume(self.queue._items.popleft())
        else:
            self.queue._getters.append(process)

    def _cancel(self, process: Process) -> None:
        try:
            self.queue._getters.remove(process)
        except ValueError:
            pass


class Gate:
    """A condition-variable-like rendezvous without its own predicate.

    Processes block on :meth:`wait`; :meth:`notify_all` wakes everyone so
    they can re-check whatever condition they care about.  Use
    :func:`wait_until` for the common re-check loop.
    """

    __slots__ = ("_waiters", "name")

    def __init__(self, name: str = "gate"):
        self._waiters: Deque[Process] = deque()
        self.name = name

    def wait(self) -> "_GateWait":
        return _GateWait(self)

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, deque()
        for process in waiters:
            process._schedule_resume(None)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)


class _GateWait:
    __slots__ = ("gate",)

    def __init__(self, gate: Gate):
        self.gate = gate

    def _block(self, process: Process) -> None:
        self.gate._waiters.append(process)

    def _cancel(self, process: Process) -> None:
        try:
            self.gate._waiters.remove(process)
        except ValueError:
            pass


def wait_until(gate: Gate, predicate, on_wait=None) -> Generator[Any, Any, None]:
    """Block on ``gate`` until ``predicate()`` is true.

    The predicate is checked immediately, then after every
    ``gate.notify_all()``.  ``on_wait`` (if given) is called once each time
    the process actually blocks — used by the hole tracker to count how
    often transaction starts had to wait (paper §6.3).
    """
    while not predicate():
        if on_wait is not None:
            on_wait()
        yield gate.wait()


class OneShot(Event):
    """Single-waiter completion slot used for request/response pairs.

    An :class:`Event` that errors if two processes wait simultaneously,
    making protocol bugs loud.
    """

    __slots__ = ()

    resolve = Event.set
    fail = Event.throw

    def wait(self) -> _EventWait:
        if self._waiters:
            raise SimulationError("OneShot already has a waiter")
        return _EventWait(self)
