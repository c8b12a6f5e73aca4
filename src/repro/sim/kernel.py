"""The discrete-event simulator core: virtual time, processes, scheduling.

The kernel is deliberately small.  Processes are generators that ``yield``
*awaitables*.  An awaitable is any object with a ``_block(process)`` method;
it must later resume the process with ``process._schedule_resume(value)`` or
``process._schedule_throw(exc)``, or support cancellation via
``_cancel(process)`` when the process is killed while waiting.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Generator, Iterator, Optional

from repro.errors import ProcessKilled, SimulationError, SimulationStalled

Coroutine = Generator[Any, Any, Any]

#: Process life-cycle states.
ALIVE = "alive"
DONE = "done"
FAILED = "failed"
KILLED = "killed"


class Delay:
    """Awaitable that resumes the waiting process after ``duration``.

    A *weak* delay (``sim.sleep(d, weak=True)``) fires like any other
    while the simulation is otherwise alive, but never keeps it running
    on its own: :meth:`Simulator.run` treats a heap holding only weak
    timers as drained.  Monitoring daemons (the obs gauge sampler) use
    weak ticks so that attaching them cannot turn a terminating run into
    a non-terminating one.
    """

    __slots__ = ("duration", "weak", "_handle")

    def __init__(self, duration: float, weak: bool = False):
        if duration < 0:
            raise SimulationError(f"negative delay: {duration}")
        self.duration = duration
        self.weak = weak

    def _block(self, process: "Process") -> None:
        self._handle = process.sim._schedule(
            self.duration, process._step_if_alive, None, weak=self.weak
        )

    def _cancel(self, process: "Process") -> None:
        # a killed sleeper's timer must not keep the run alive
        process.sim._cancel(self._handle)


class Process:
    """A generator coroutine driven by the simulator.

    Attributes
    ----------
    name:
        Diagnostic label used in traces and error messages.
    state:
        One of ``alive``, ``done``, ``failed``, ``killed``.
    result:
        The generator's return value once ``state == "done"``.
    exception:
        The uncaught exception once ``state == "failed"``.
    """

    __slots__ = (
        "sim",
        "gen",
        "name",
        "daemon",
        "state",
        "result",
        "exception",
        "_waiting_on",
        "_joiners",
    )

    def __init__(self, sim: "Runtime", gen: Coroutine, name: str, daemon: bool):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.daemon = daemon
        self.state = ALIVE
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._waiting_on: Any = None
        self._joiners: list[Process] = []

    def __repr__(self) -> str:
        return f"<Process {self.name} {self.state} @{self.sim.now:.6f}>"

    @property
    def alive(self) -> bool:
        return self.state == ALIVE

    # -- driving ------------------------------------------------------------

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self.state != ALIVE:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                awaitable = self.gen.throw(exc)
            else:
                awaitable = self.gen.send(value)
        except StopIteration as stop:
            self._finish(DONE, result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - report coroutine failure
            self._finish(FAILED, exception=err)
            if not self.daemon:
                self.sim._record_failure(self, err)
            return
        if not hasattr(awaitable, "_block"):
            self._finish(
                FAILED,
                exception=SimulationError(
                    f"process {self.name!r} yielded non-awaitable {awaitable!r}"
                ),
            )
            if not self.daemon:
                self.sim._record_failure(self, self.exception)  # type: ignore[arg-type]
            return
        self._waiting_on = awaitable
        awaitable._block(self)

    def _finish(
        self,
        state: str,
        result: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self.state = state
        self.result = result
        self.exception = exception
        joiners, self._joiners = self._joiners, []
        for joiner in joiners:
            self.sim._schedule(0.0, joiner._resume_join, self)

    # -- resumption entry points used by awaitables -------------------------

    def _schedule_resume(self, value: Any) -> None:
        self.sim._schedule(0.0, self._step_if_alive, value)

    def _schedule_throw(self, exc: BaseException) -> None:
        self.sim._schedule(0.0, self._throw_if_alive, exc)

    def _step_if_alive(self, value: Any) -> None:
        if self.state == ALIVE:
            self._step(value)

    def _throw_if_alive(self, exc: BaseException) -> None:
        if self.state == ALIVE:
            self._step(exc=exc)

    def _resume_join(self, target: "Process") -> None:
        if self.state != ALIVE:
            return
        if target.state == FAILED:
            self._step(exc=target.exception)
        elif target.state == KILLED:
            self._step(exc=ProcessKilled(f"joined process {target.name!r} was killed"))
        else:
            self._step(target.result)

    # -- public control ------------------------------------------------------

    def join(self) -> "_Join":
        """Awaitable: resume with the process result once it finishes."""
        return _Join(self)

    def kill(self) -> None:
        """Terminate the process immediately.

        The generator is closed (its ``finally`` clauses run, but must not
        yield) and any awaitable it was blocked on is told to forget it.
        Joiners are resumed with :class:`ProcessKilled`.
        """
        if self.state != ALIVE:
            return
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None and hasattr(waiting, "_cancel"):
            waiting._cancel(self)
        self.state = KILLED
        try:
            self.gen.close()
        except BaseException as err:  # noqa: BLE001
            self.exception = err
        joiners, self._joiners = self._joiners, []
        for joiner in joiners:
            self.sim._schedule(0.0, joiner._resume_join, self)


class _Join:
    __slots__ = ("target",)

    def __init__(self, target: Process):
        self.target = target

    def _block(self, process: Process) -> None:
        if self.target.state != ALIVE:
            self.target.sim._schedule(0.0, process._resume_join, self.target)
        else:
            self.target._joiners.append(process)

    def _cancel(self, process: Process) -> None:
        if process in self.target._joiners:
            self.target._joiners.remove(process)


def _call(callback: Callable[[], None]) -> None:
    """What ``call_at`` schedules: its argument is the user's callback."""
    callback()


class Runtime:
    """The rules both schedulers share; :class:`Simulator` and
    :class:`repro.runtime.WallRuntime` add their clock (the split and
    the contract are in :mod:`repro.runtime.api`)."""

    #: Which clock this runtime advances: ``"sim"`` (virtual time) or
    #: ``"wall"`` (real time).  Metrics and bench envelopes are tagged
    #: with it so wall-clock numbers never compare against sim baselines.
    clock: str
    #: what :meth:`spawn` builds
    process_class = Process

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rngs: dict[str, random.Random] = {}
        #: the first non-daemon failure: (process name, error)
        self._failure: Optional[tuple[str, BaseException]] = None

    def rng(self, stream: str) -> random.Random:
        """A dedicated RNG for ``stream``, derived from the seed.

        Distinct streams are statistically independent and insensitive to
        draw order in other streams, which keeps experiments comparable
        when one component changes, and a stream draws the same sequence
        under either scheduler.
        """
        rng = self._rngs.get(stream)
        if rng is None:
            rng = random.Random(f"{self._seed}/{stream}")
            self._rngs[stream] = rng
        return rng

    def sleep(self, duration: float, weak: bool = False) -> Delay:
        """Awaitable: resume after ``duration`` seconds of this clock.

        ``weak=True`` marks a monitoring tick that must not keep the
        run alive by itself (see :class:`Delay`).
        """
        return Delay(duration, weak=weak)

    def spawn(self, gen: Coroutine, name: str = "?", daemon: bool = False) -> Process:
        """Create a process and schedule its first step immediately.

        Non-daemon processes that die with an uncaught exception abort the
        whole run (the exception propagates out of ``run``); daemons
        merely record it.
        """
        if isinstance(gen, Iterator) and not isinstance(gen, Generator):
            raise SimulationError(f"spawn needs a generator, got {type(gen)!r}")
        process = self.process_class(self, gen, name, daemon)
        self._schedule(0.0, process._step_if_alive, None)
        return process

    def _record_failure(self, process: Process, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = (process.name, exc)

    def _raise_failure(self) -> None:
        """Raise the recorded failure (the caller checked there is one)."""
        name, exc = self._failure
        self._failure = None
        raise SimulationError(
            f"process {name!r} failed at t={self.now:.6f}"
        ) from exc

    def _outcome(self, process: Process, stalled: str) -> Any:
        """What ``run_process`` returns or raises once its loop has ended:
        the result, the process's own error, :class:`ProcessKilled`, or
        :class:`SimulationStalled` (``stalled`` says what ran out)."""
        if process.state == DONE:
            return process.result
        if process.state == FAILED:
            raise process.exception  # type: ignore[misc]
        if process.state == KILLED:
            raise ProcessKilled(f"process {process.name!r} was killed")
        raise SimulationStalled(
            f"{stalled} at t={self.now:.6f} while {process.name!r} "
            f"was still blocked on {process._waiting_on!r}"
        )


class Simulator(Runtime):
    """Deterministic discrete-event loop with named random streams."""

    clock = "sim"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, Any, bool]] = []
        self._seq = 0
        #: heap entries that are NOT weak monitoring timers; when this
        #: hits zero the simulation has no real work left
        self._strong = 0
        #: seqs of heap entries that were cancelled: skipped when popped
        self._cancelled: set[int] = set()

    # bound here, not only inherited: the e2e benchmark's tracer wraps
    # each scheduler's own ``vars(...)`` entry
    spawn = Runtime.spawn
    sleep = Runtime.sleep

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def _schedule(
        self, delay: float, callback: Callable, arg: Any, weak: bool = False
    ) -> tuple:
        """Push ``callback(arg)`` at ``now + delay``; the heap entry is
        the handle :meth:`_cancel` takes."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        if not weak:
            self._strong += 1
        entry = (self._now + delay, self._seq, callback, arg, weak)
        heapq.heappush(self._heap, entry)
        return entry

    def _cancel(self, entry: tuple) -> None:
        """Drop a pending entry: it stops counting as work, and the loops
        pop it without running it or moving ``now``."""
        if not entry[4]:
            self._strong -= 1
        self._cancelled.add(entry[1])

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute virtual time ``time``.

        Pushes the absolute time directly (no now + delta round trip) so
        that events targeted at the exact same instant keep FIFO order
        regardless of floating-point representation.
        """
        if time < self._now:
            raise SimulationError(f"call_at in the past: {time} < {self._now}")
        self._seq += 1
        self._strong += 1
        heapq.heappush(self._heap, (time, self._seq, _call, callback, False))

    # -- running ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Execute events until the heap is empty or ``until`` is passed.

        Without ``until``, a heap holding only weak monitoring timers
        counts as empty — the simulated system itself has nothing left
        to do.  With ``until``, weak timers inside the horizon still
        fire (that is how ``run(until=now + x)`` keeps collecting gauge
        samples while a test lets a cluster settle).
        """
        cancelled = self._cancelled
        while self._heap:
            if until is None and self._strong == 0:
                break
            time, seq, callback, arg, weak = self._heap[0]
            if until is not None and time > until:
                self._now = until
                break
            heapq.heappop(self._heap)
            if cancelled and seq in cancelled:
                cancelled.remove(seq)
                continue
            if not weak:
                self._strong -= 1
            self._now = time
            callback(arg)
            if self._failure is not None:
                self._raise_failure()

    def stop(self) -> None:
        """Release external resources held by the runtime.

        The simulator holds none (virtual timers are just heap entries),
        so this is a no-op; it exists so deployment teardown can call
        ``runtime.stop()`` uniformly across backends.
        """

    def run_blocking(self, fn: Callable[[], Any]) -> Coroutine:
        """``result = yield from sim.run_blocking(fn)``: a blocking host
        call made on behalf of a process.

        Virtual time has no host wait to overlap — what the call costs
        is billed through resources (the replica's disk) — so ``fn``
        runs inline and nothing is scheduled: the event stream is the
        one the call site would produce without it.
        """
        return fn()
        yield  # pragma: no cover - makes this a generator

    def run_process(self, gen: Coroutine, name: str = "main") -> Any:
        """Spawn ``gen`` and run the loop until it finishes.

        Returns the generator's return value, re-raises its exception, or
        raises :class:`SimulationStalled` if the event heap drains while the
        process is still blocked (a real deadlock among processes).
        """
        process = self.spawn(gen, name=name, daemon=True)
        cancelled = self._cancelled
        while self._heap and self._strong and process.state == ALIVE:
            time, seq, callback, arg, weak = heapq.heappop(self._heap)
            if cancelled and seq in cancelled:
                cancelled.remove(seq)
                continue
            if not weak:
                self._strong -= 1
            self._now = time
            callback(arg)
            if self._failure is not None:
                self._raise_failure()
        return self._outcome(process, "event heap drained")
