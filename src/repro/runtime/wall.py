"""The real-time runtime: the protocol kernel on its own selector loop.

:class:`WallRuntime` is the :class:`~repro.sim.kernel.Runtime` on
wall-clock time: the same processes and FIFO sync primitives, with
``now`` in real seconds since the runtime was built.  A timed callback
is a ``(when, seq, callback, arg, weak)`` entry on the simulator's heap,
keyed by ``time.monotonic()`` and cancelled by recording its seq.  A
zero-delay one (every resume, spawn and join wake-up) is appended to a
FIFO ready queue instead: no heap push, resumes run in the order they
were scheduled, and nothing holds a reference back to itself, so
refcounting alone frees every wake-up.

One loop turn (:meth:`WallRuntime._turn`) blocks in
``selectors.DefaultSelector.select`` until a socket is ready or the next
timer is due (not at all while ready work is queued), then runs the
socket handlers, the due timers, and the ready callbacks queued when the
drain starts; what those schedule waits for the next turn, so a process
spinning on ``sleep(0)`` cannot starve the sockets of
:mod:`repro.runtime.tcpnet`.  After each turn ``run`` tests quiescence
directly: no strong work left, a recorded failure, or the watched
process done.  Strong work is the simulator's non-weak timers plus
*I/O tokens* (``_io_begin``/``_io_end``): one per frame on the wire, per
FIN the peer has not read, and per blocking call in flight, so ``run()``
never mistakes data in a kernel buffer for quiescence.

Blocking host calls (:meth:`WallRuntime.run_blocking` — the writeset
log's ``fsync``) run on one runtime-owned I/O thread, started on first
use.  It runs every call queued when it wakes, appends the batch's
completions to a deque and wakes the loop through a ``socketpair``; the
loop resolves each waiter's :class:`OneShot`.  Only the loop thread
schedules or touches the selector.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.errors import RuntimeStopped, SimulationError
from repro.sim.kernel import ALIVE, Process, Runtime, _call
from repro.sim.sync import OneShot

_monotonic = time.monotonic


class _Process(Process):
    """A process in its runtime's live set from spawn until it ends."""

    __slots__ = ()

    def __init__(self, sim: "WallRuntime", gen, name: str, daemon: bool):
        super().__init__(sim, gen, name, daemon)
        sim.processes[self] = None

    def _finish(self, state, result=None, exception=None) -> None:
        self.sim.processes.pop(self, None)
        super()._finish(state, result, exception)

    def kill(self) -> None:
        super().kill()
        self.sim.processes.pop(self, None)


class WallRuntime(Runtime):
    """The protocol kernel on wall-clock time."""

    clock = "wall"
    process_class = _Process

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._t0 = _monotonic()
        #: the live processes, in spawn order (a dict used as an ordered
        #: set): ``stop()`` sweeps them, and each leaves as it ends
        self.processes: dict[Process, None] = {}
        #: strong pending work: non-weak timers + in-flight I/O tokens
        self._strong = 0
        #: timed callbacks ``(when, seq, callback, arg, weak)``, monotonic
        self._heap: list[tuple[float, int, Callable, Any, bool]] = []
        self._seq = 0
        #: seqs of heap entries that were cancelled: skipped when popped
        self._cancelled: set[int] = set()
        #: zero-delay callbacks, FIFO: ``(callback, arg, weak)``
        self._ready: deque[tuple[Callable, Any, bool]] = deque()
        #: loop turns taken (each one ``select`` call)
        self.turns = 0
        self._selector = selectors.DefaultSelector()
        #: the I/O thread writes a byte to ``_wake_w`` to end a ``select``
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._on_wake)
        #: teardown hooks registered by I/O layers (TcpNetwork etc.)
        self._closers: list[Callable[[], None]] = []
        self._stopped = False
        #: set at the end of ``stop()``: schedules are dropped from then on
        self._closed = False
        #: calls for the I/O thread, and its finished ``(slot, ok, value)``s
        self._blocking: deque[tuple[Callable[[], Any], OneShot]] = deque()
        self._done: deque[list] = deque()
        self._io_wake = threading.Event()
        self._io_thread: Optional[threading.Thread] = None
        self._io_closing = False

    # bound here, not only inherited: the e2e benchmark's tracer wraps
    # each scheduler's own ``vars(...)`` entry
    spawn = Runtime.spawn
    sleep = Runtime.sleep

    @property
    def now(self) -> float:
        """Seconds of real time elapsed since the runtime was created."""
        return _monotonic() - self._t0

    # -- scheduling ----------------------------------------------------------

    def _schedule(
        self, delay: float, callback: Callable, arg: Any, weak: bool = False
    ) -> Optional[tuple]:
        """Run ``callback(arg)`` after ``delay``; a timed callback returns
        its heap entry, the handle :meth:`_cancel` takes."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if self._closed:
            return None  # post-stop stragglers (joiner resumes, etc.) are moot
        if not weak:
            self._strong += 1
        if delay:
            self._seq += 1
            entry = (_monotonic() + delay, self._seq, callback, arg, weak)
            heappush(self._heap, entry)
            return entry
        self._ready.append((callback, arg, weak))
        return None

    def _cancel(self, entry: Optional[tuple]) -> None:
        """Drop a pending timer: it stops counting as work and is popped
        unrun.  A zero-delay callback (no entry) runs on the next drain."""
        if entry is None:
            return
        if not entry[4]:
            self._strong -= 1
        self._cancelled.add(entry[1])

    def _callback_failed(self, callback, arg, err: BaseException) -> None:
        # Process steps never raise (they record failures); a raw
        # call_at callback or socket handler that does must still abort
        # the run loop instead of vanishing.
        if self._failure is None:
            if callback is _call:  # name call_at's callback, not its wrapper
                callback = arg
            name = f"timer:{getattr(callback, '__qualname__', callback)!r}"
            self._failure = (name, err)

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute runtime ``time``.

        Unlike the simulator this *clamps* past targets to "now": real
        time advances between computing a target (e.g. the sequencer's
        ``max(now, busy_until)``) and scheduling it, so a small negative
        delta is normal here, not a determinism bug.  If ``callback``
        raises, ``run()`` raises :class:`SimulationError` naming it,
        with the error as ``__cause__`` (the simulator lets it escape).
        """
        self._schedule(max(0.0, time - self.now), _call, callback)

    # -- the loop ------------------------------------------------------------

    def _turn(self, deadline: Optional[float]) -> None:
        """One loop turn (see module docstring); ``deadline`` is on the
        monotonic clock and caps the wait."""
        self.turns += 1
        heap = self._heap
        if self._ready:
            timeout: Optional[float] = 0.0
        else:
            wake = heap[0][0] if heap else deadline
            if deadline is not None and wake > deadline:
                wake = deadline
            timeout = None if wake is None else max(0.0, wake - _monotonic())
        for key, mask in self._selector.select(timeout):
            try:
                key.data(mask)
            except Exception as err:  # noqa: BLE001 - surface via run()
                self._callback_failed(key.data, mask, err)
        if heap:
            now, cancelled = _monotonic(), self._cancelled
            while heap and heap[0][0] <= now:
                _when, seq, callback, arg, weak = heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.remove(seq)
                    continue
                if not weak:
                    self._strong -= 1
                try:
                    callback(arg)
                except Exception as err:  # noqa: BLE001 - surface via run()
                    self._callback_failed(callback, arg, err)
        if self._ready:
            self._run_ready()

    def _run_ready(self) -> None:
        """Run the zero-delay callbacks queued when this drain started."""
        ready = self._ready
        for _ in range(len(ready)):
            callback, arg, weak = ready.popleft()
            if not weak:
                self._strong -= 1
            try:
                callback(arg)
            except Exception as err:  # noqa: BLE001 - surface via run()
                self._callback_failed(callback, arg, err)

    # -- I/O tokens (see module docstring) -----------------------------------

    def _io_begin(self) -> None:
        self._strong += 1

    def _io_end(self) -> None:
        self._strong -= 1

    # -- blocking calls off the loop (see module docstring) ------------------

    def run_blocking(self, fn: Callable[[], Any]) -> Generator[Any, Any, Any]:
        """``result = yield from rt.run_blocking(fn)``: run ``fn`` on the
        I/O thread while the loop keeps serving every other process."""
        if self._stopped:
            raise RuntimeStopped("runtime stopped")
        slot = OneShot()
        self._io_begin()
        self._blocking.append((fn, slot))
        if self._io_thread is None:
            self._io_thread = threading.Thread(
                target=self._io_worker, name="repro-io", daemon=True
            )
            self._io_thread.start()
        self._io_wake.set()
        return (yield slot.wait())

    def _io_worker(self) -> None:
        pending, wake = self._blocking, self._io_wake
        while True:
            wake.wait()
            wake.clear()
            done = []
            while pending:
                fn, slot = pending.popleft()
                try:
                    done.append((slot, True, fn()))
                except BaseException as err:  # noqa: BLE001 - re-raised in the waiter
                    done.append((slot, False, err))
            if done:
                self._done.append(done)
                try:
                    self._wake_w.send(b"\0")
                except BlockingIOError:
                    pass  # the socket is full of wake-ups the loop has yet to read
            if self._io_closing:
                return

    def _on_wake(self, _mask: int) -> None:
        """The I/O thread finished calls: resolve their waiters."""
        self._wake_r.recv(4096)  # readable, so this does not block
        done = self._done
        while done:
            for slot, ok, value in done.popleft():
                if ok:
                    slot.resolve(value)
                else:
                    slot.fail(value)
                self._io_end()

    def _join_io_thread(self) -> None:
        """Finish every pending blocking call (the loop takes the
        completions on a later turn)."""
        if self._io_thread is None:
            return
        self._io_closing = True
        self._io_wake.set()
        self._io_thread.join()
        self._io_thread = None

    def add_closer(self, closer: Callable[[], None]) -> None:
        """Register a teardown hook run by :meth:`stop`."""
        self._closers.append(closer)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Drive the loop until quiescent (no strong timer and no I/O in
        flight, as the simulator's heap counts as drained) or past the
        ``until`` horizon."""
        if self._stopped:
            raise SimulationError("runtime already stopped")
        deadline = None if until is None else self._t0 + until
        while True:
            if self._failure is not None:
                self._raise_failure()
            if deadline is None:
                if self._strong == 0:
                    return
            elif _monotonic() >= deadline:
                return
            self._turn(deadline)

    def run_process(self, gen, name: str = "main") -> Any:
        """Spawn ``gen`` and drive the loop until it finishes."""
        if self._stopped:
            raise SimulationError("runtime already stopped")
        process = self.spawn(gen, name=name, daemon=True)
        while process.state == ALIVE and self._strong:
            self._turn(None)
            if self._failure is not None:
                self._raise_failure()
        return self._outcome(process, "no pending work")

    # -- shutdown ------------------------------------------------------------

    def stop(self) -> None:
        """Tear the runtime down without leaking sockets, timers, or FDs.

        In order: join the I/O thread once it has finished the calls
        handed to it; throw :class:`~repro.errors.RuntimeStopped` into
        every process blocked on an ``Event``/``OneShot`` and turn the
        loop so they unwind; kill what is still alive; drop every timer
        and queued callback; run the closers (listeners, channels) and
        turn the loop for their FINs; close every socket still
        registered, the selector and the wake-up pair.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        self._join_io_thread()
        stop_exc = RuntimeStopped("runtime stopped")
        for process in list(self.processes):
            if process.state != ALIVE:
                continue
            event = getattr(process._waiting_on, "event", None)
            if event is not None:
                event.throw(stop_exc)
        self._drain(0.005)
        for process in list(self.processes):
            process.kill()
        self._drain(0.002)
        self._drop_pending()
        for closer in self._closers:
            closer()
        self._closers.clear()
        self._drain(0.003)
        self._closed = True
        self._drop_pending()
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self._wake_w.close()
        self._failure = None

    def _drop_pending(self) -> None:
        """Forget every timer and queued callback: nothing counts as work."""
        self._heap.clear()
        self._cancelled.clear()
        self._ready.clear()
        self._strong = 0

    def _drain(self, seconds: float) -> None:
        """Turn the loop for ``seconds`` so teardown callbacks land."""
        deadline = _monotonic() + seconds
        while _monotonic() < deadline:
            self._turn(deadline)
        self._failure = None
