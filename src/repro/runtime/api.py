"""The runtime API: the kernel surface the protocol is coded against.

The SI-Rep protocol code (``core/srca_rep.py``, ``core/replica.py``,
``gcs/``, ``net/``, ``durable/``, ``reader/``) never touches scheduler
internals.  Everything it needs from "the kernel" is the narrow surface
of :class:`repro.sim.kernel.Runtime`: spawn / sleep / now, the FIFO sync
primitives from :mod:`repro.sim.sync` (``Queue``, ``Event``, ``Gate``,
``OneShot``), channel send/recv with FIFO-then-break crash semantics,
and timer scheduling (``call_at`` / ``_schedule`` with strong/weak
accounting).  ``Runtime`` is the base of both schedulers and owns what
they share: the seeded RNG streams, ``sleep``, ``spawn``, failure
recording and raising, and ``run_process``'s outcome.  Each keeps only
what its clock makes different: ``now``, ``_schedule``, ``call_at``,
the ``run`` / ``run_process`` loops, ``stop`` and ``run_blocking``:

* :class:`repro.sim.Simulator` — the discrete-event backend.  Virtual
  time, deterministic heap order, seeded RNG streams; ``clock == "sim"``.
* :class:`repro.runtime.WallRuntime` — the real-time backend.  The
  simulator's timer heap on the monotonic clock, with a selector loop
  that blocks until the next timer or socket event; the same generator
  processes and sync primitives run unchanged on top of it, non-blocking
  TCP sockets implement the channels (:mod:`repro.runtime.tcpnet`) and
  the GCS (:mod:`repro.runtime.tcpbus`), and the durable writeset log
  fsyncs real files; ``clock == "wall"``.

Both reuse ``Process``, ``Delay`` and the whole of ``repro.sim.sync``
verbatim: those are written purely against ``sim._schedule``, so the
kernel boundary is the scheduler, not the primitives.

Behavioral contract (pinned by ``tests/runtime/test_kernel_contract.py``):

* ``spawn(gen)`` rejects non-generator iterators; non-daemon failures
  abort ``run()`` with :class:`~repro.errors.SimulationError` naming the
  process, with the error as its ``__cause__``.
* ``run_process`` raises :class:`~repro.errors.ProcessKilled` if its
  process is killed, and :class:`~repro.errors.SimulationStalled` if it
  is blocked with no pending work left.
* ``kill()`` while blocked cancels the awaitable (no ghost resumption)
  and resumes joiners with :class:`~repro.errors.ProcessKilled`.
* Weak timers (``sleep(d, weak=True)``) never keep ``run()`` alive.
* ``Queue.close`` fails blocked getters but still drains queued items.
* A broken channel delivers :class:`~repro.net.network.ChannelClosed`
  *behind* in-flight FIFO data, for simulated hops and TCP alike.
* ``result = yield from run_blocking(fn)`` returns ``fn()`` or raises
  what it raised.  The simulator calls ``fn`` inline and schedules
  nothing (virtual time bills I/O through resources, not host waits);
  the wall runtime runs it on a runtime-owned I/O thread so a blocking
  syscall (the writeset log's ``fsync``) never stalls the loop, and
  ``run()`` does not return while such a call is pending.

Known divergences: ``call_at`` with a target in the past raises on the
simulator (it would reorder the deterministic heap) but clamps to
"now" on the wall clock, where real time necessarily advances between
computing a target and scheduling it.  A ``call_at`` callback that
raises escapes ``run()`` as it is on the simulator; the wall clock
raises :class:`~repro.errors.SimulationError` naming the callback
(``timer:'boom'``), with the original error as its ``__cause__``.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.sim.kernel import Runtime


def make_runtime(kind: str, seed: int = 0) -> Runtime:
    """Build a runtime by name: ``"sim"`` or ``"wall"``.

    ``seed`` feeds the named RNG streams identically on both backends
    (``rng("net")`` draws the same sequence under either scheduler),
    which is what makes sim-vs-wall conformance runs comparable.
    """
    if kind == "sim":
        from repro.sim import Simulator

        return Simulator(seed=seed)
    if kind == "wall":
        from repro.runtime.wall import WallRuntime

        return WallRuntime(seed=seed)
    raise ReproError(f"unknown runtime {kind!r} (expected 'sim' or 'wall')")
