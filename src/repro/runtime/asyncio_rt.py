"""The real-time runtime: the protocol kernel on an asyncio event loop.

:class:`AsyncioRuntime` is the :class:`~repro.sim.kernel.Runtime` on
wall-clock time.  The same generator :class:`~repro.sim.kernel.Process`
objects and FIFO sync primitives run unchanged; only the scheduler
differs — ``_schedule`` maps to the loop instead of a heap push, and
``now`` is real elapsed seconds since the runtime was built.  A timed
callback is a :class:`_Timer` on the loop's timer heap
(``loop.call_later``).  A zero-delay one — every process resume, spawn
and join wake-up — is a ``(callback, arg, weak)`` tuple appended to the
runtime's own FIFO ready queue, drained by one ``loop.call_soon`` of
:meth:`AsyncioRuntime._run_ready` per loop iteration.  Waking a process
therefore costs no heap push and pop, resumes run in exactly the order
they were scheduled (the FIFO the sync primitives promise), and it
allocates no asyncio ``Handle`` or ``Context``.  Nor does it make a
reference cycle (a timer holding a handle that holds the timer's bound
``fire``), so refcounting frees every wake-up and the cyclic collector
never has to; a timed ``_Timer`` drops its handle when it fires for the
same reason.  A drain runs only the entries queued when it starts, so
the socket callbacks the loop runs between iterations keep their turn.
Only the loop thread touches the ready queue; the I/O thread posts its
completions with ``call_soon_threadsafe``.

Strong/weak accounting mirrors the simulator: ``run()`` without a
horizon returns once no strong timer is pending.  Real I/O adds one
wrinkle the simulator never sees — a message can be "on the wire" (in a
kernel socket buffer) with no timer pending for it.  TCP channel ends
therefore hold an *I/O token* (``_io_begin``/``_io_end``) per in-flight
frame, counted exactly like a strong timer, so quiescence means "no
timers **and** nothing in flight", matching the simulator's in-flight
``call_at`` hops.

The loop is private to the runtime and never runs concurrently with
protocol code: ``run``/``run_process`` drive it with
``run_until_complete`` on a wake future that fires on strong-count
exhaustion, recorded failure, or the watched process finishing.

Blocking host calls (:meth:`AsyncioRuntime.run_blocking` — the writeset
log's ``fsync``) go to one runtime-owned I/O thread, started on first
use.  Each pending call holds an I/O token; the thread runs every call
queued when it wakes and posts the whole batch back to the loop with a
single ``call_soon_threadsafe``, where each waiter's :class:`OneShot`
is resolved (or failed with the call's exception).
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.errors import RuntimeStopped, SimulationError
from repro.sim.kernel import ALIVE, Process, Runtime, _call
from repro.sim.sync import OneShot

#: Safety-net poll while parked in ``run_until_complete`` — every wake
#: condition is event-driven, this only bounds lost-wakeup bugs.
_POLL = 0.05


class _Timer:
    """One timed callback (``loop.call_later``) plus its strong/weak
    bookkeeping; kept in ``_timers`` so ``stop()`` can cancel it."""

    __slots__ = ("runtime", "callback", "arg", "weak", "handle")

    def __init__(self, runtime: "AsyncioRuntime", callback, arg, weak: bool):
        self.runtime = runtime
        self.callback = callback
        self.arg = arg
        self.weak = weak
        self.handle: Optional[asyncio.TimerHandle] = None

    def fire(self) -> None:
        # the handle holds ``self.fire``, which holds this timer: letting
        # go of it first leaves the pair to refcounting, not the collector
        self.handle = None
        rt = self.runtime
        rt._timers.discard(self)
        if not self.weak:
            rt._strong -= 1
        try:
            self.callback(self.arg)
        except BaseException as err:  # noqa: BLE001 - surface via run()
            rt._callback_failed(self.callback, self.arg, err)
        rt._check_wake()


class _Process(Process):
    """A process in its runtime's live set from spawn until it ends."""

    __slots__ = ()

    def __init__(self, sim: "AsyncioRuntime", gen, name: str, daemon: bool):
        super().__init__(sim, gen, name, daemon)
        sim.processes[self] = None

    def _finish(self, state, result=None, exception=None) -> None:
        self.sim.processes.pop(self, None)
        super()._finish(state, result, exception)

    def kill(self) -> None:
        super().kill()
        self.sim.processes.pop(self, None)


class AsyncioRuntime(Runtime):
    """The protocol kernel on wall-clock time."""

    clock = "wall"
    process_class = _Process

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._loop = asyncio.new_event_loop()
        self._t0 = self._loop.time()
        #: the live processes, in spawn order (a dict used as an ordered
        #: set): ``stop()`` sweeps them, and each leaves as it ends
        self.processes: dict[Process, None] = {}
        #: strong pending work: non-weak timers + in-flight I/O tokens
        self._strong = 0
        self._timers: set[_Timer] = set()
        #: zero-delay callbacks, FIFO: ``(callback, arg, weak)``
        self._ready: deque[tuple[Callable, Any, bool]] = deque()
        #: a ``_run_ready`` is on the loop's own ready queue
        self._ready_armed = False
        self._tasks: set[asyncio.Task] = set()
        #: teardown hooks registered by I/O layers (TcpNetwork etc.)
        self._closers: list[Callable[[], None]] = []
        self._wake: Optional[asyncio.Future] = None
        self._watch: Optional[Process] = None
        self._stopped = False
        #: run_blocking calls not yet taken by the I/O thread
        self._blocking: deque[tuple[Callable[[], Any], OneShot]] = deque()
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
        return self._loop.time() - self._t0

    # -- scheduling ----------------------------------------------------------

    def _schedule(
        self, delay: float, callback: Callable, arg: Any, weak: bool = False
    ) -> Optional[_Timer]:
        """Run ``callback(arg)`` after ``delay``; a timed callback returns
        its :class:`_Timer`, the handle :meth:`_cancel` takes."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if self._loop.is_closed():
            return None  # post-stop stragglers (joiner resumes, etc.) are moot
        if not weak:
            self._strong += 1
        if delay:
            timer = _Timer(self, callback, arg, weak)
            timer.handle = self._loop.call_later(delay, timer.fire)
            self._timers.add(timer)
            return timer
        self._ready.append((callback, arg, weak))
        if not self._ready_armed:
            self._ready_armed = True
            self._loop.call_soon(self._run_ready)
        return None

    def _cancel(self, timer: Optional[_Timer]) -> None:
        """Drop a pending timer so it stops counting as work.  A
        zero-delay callback has no handle: it runs on the next drain."""
        if timer is None:
            return
        timer.handle.cancel()
        timer.handle = None
        self._timers.discard(timer)
        if not timer.weak:
            self._strong -= 1
            self._check_wake()

    def _run_ready(self) -> None:
        """Run the zero-delay callbacks queued when this drain started.

        What they schedule waits for the next drain, one loop iteration
        later, so a process spinning on ``sleep(0)`` cannot starve the
        socket callbacks the loop runs in between.
        """
        ready = self._ready
        for _ in range(len(ready)):
            callback, arg, weak = ready.popleft()
            if not weak:
                self._strong -= 1
            try:
                callback(arg)
            except BaseException as err:  # noqa: BLE001 - surface via run()
                self._callback_failed(callback, arg, err)
        if ready:
            self._loop.call_soon(self._run_ready)
        else:
            self._ready_armed = False
        self._check_wake()

    def _callback_failed(self, callback, arg, err: BaseException) -> None:
        # Process steps never raise (they record failures); a raw
        # call_at callback that does must still abort the run loop
        # instead of vanishing into the loop's exception handler.
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

    def _record_failure(self, process: Process, exc: BaseException) -> None:
        super()._record_failure(process, exc)
        self._check_wake()

    # -- I/O tokens (see module docstring) -----------------------------------

    def _io_begin(self) -> None:
        self._strong += 1

    def _io_end(self) -> None:
        self._strong -= 1
        self._check_wake()

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
                self._loop.call_soon_threadsafe(self._io_complete, done)
            if self._io_closing:
                return

    def _io_complete(self, done: list) -> None:
        for slot, ok, value in done:
            if ok:
                slot.resolve(value)
            else:
                slot.fail(value)
            self._io_end()

    def _join_io_thread(self) -> None:
        """Finish every pending blocking call; its completion is queued
        on the loop, which must therefore still be open."""
        if self._io_thread is None:
            return
        self._io_closing = True
        self._io_wake.set()
        self._io_thread.join()
        self._io_thread = None

    # -- asyncio plumbing ----------------------------------------------------

    def spawn_task(self, coro) -> asyncio.Task:
        """Run a raw coroutine (socket setup, server) on the private loop."""
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def add_closer(self, closer: Callable[[], None]) -> None:
        """Register a teardown hook run by :meth:`stop`."""
        self._closers.append(closer)

    def _check_wake(self) -> None:
        wake = self._wake
        if wake is None or wake.done():
            return
        if (
            self._strong == 0
            or self._failure is not None
            or (self._watch is not None and self._watch.state != ALIVE)
        ):
            wake.set_result(None)

    async def _park(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(asyncio.shield(self._wake), timeout)
        except asyncio.TimeoutError:
            pass

    def _turn(self, timeout: float) -> None:
        """Run the loop until a wake condition or ``timeout`` elapses."""
        self._wake = self._loop.create_future()
        self._check_wake()  # condition may already hold
        try:
            self._loop.run_until_complete(self._park(timeout))
        finally:
            self._wake = None

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Drive the loop until quiescent or past the ``until`` horizon.

        Quiescent means no strong timers pending and no I/O in flight —
        the same condition under which the simulator's heap counts as
        drained (weak monitoring timers don't keep a run alive here
        either).
        """
        if self._stopped:
            raise SimulationError("runtime already stopped")
        while True:
            if self._failure is not None:
                self._raise_failure()
            if until is None:
                if self._strong == 0:
                    return
                self._turn(_POLL)
            else:
                remaining = (self._t0 + until) - self._loop.time()
                if remaining <= 0:
                    return
                self._turn(min(_POLL, remaining))

    def run_process(self, gen, name: str = "main") -> Any:
        """Spawn ``gen`` and drive the loop until it finishes."""
        if self._stopped:
            raise SimulationError("runtime already stopped")
        process = self.spawn(gen, name=name, daemon=True)
        previous_watch, self._watch = self._watch, process
        try:
            while process.state == ALIVE and self._strong:
                self._turn(_POLL)
                if self._failure is not None:
                    self._raise_failure()
        finally:
            self._watch = previous_watch
        return self._outcome(process, "no pending work")

    # -- shutdown ------------------------------------------------------------

    def stop(self) -> None:
        """Tear the runtime down without leaking sockets, timers, or FDs.

        Sweep order: (0) let the I/O thread finish the blocking calls
        already handed to it and join it; (1) fail every blocked
        ``Event``/``OneShot`` waiter with
        :class:`~repro.errors.RuntimeStopped` — the ``OneShot.fail``
        path — and let the loop drain so generators unwind (and the
        I/O completions land); (2) kill any process still alive; (3)
        cancel all outstanding timers and drop the zero-delay callbacks
        still queued; (4) run registered closers
        (listening sockets, channel transports) and drain their FIN
        handshakes; (5) cancel remaining asyncio tasks and close the
        loop.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        loop = self._loop
        if loop.is_closed():
            return
        self._join_io_thread()
        stop_exc = RuntimeStopped("runtime stopped")
        for process in list(self.processes):
            if process.state != ALIVE:
                continue
            event = getattr(process._waiting_on, "event", None)
            if event is not None:
                event.throw(stop_exc)
        self._drain(rounds=5)
        for process in list(self.processes):
            process.kill()
        self._drain(rounds=2)
        for timer in self._timers:
            timer.handle.cancel()
        self._timers.clear()
        self._ready.clear()
        self._strong = 0
        for closer in self._closers:
            closer()
        self._closers.clear()
        self._drain(rounds=3)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            loop.run_until_complete(
                asyncio.gather(*self._tasks, return_exceptions=True)
            )
        self._tasks.clear()
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
        self._failure = None

    def _drain(self, rounds: int) -> None:
        """Give the loop a few short turns so teardown callbacks land."""
        for _ in range(rounds):
            try:
                self._loop.run_until_complete(asyncio.sleep(0.001))
            except RuntimeError:  # pragma: no cover - loop closed under us
                return
        self._failure = None
