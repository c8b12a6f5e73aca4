"""Deterministic discrete-event simulation kernel.

Every concurrent actor in the reproduction (clients, middleware sessions,
committers, the group-communication bus, lock waiters) is a plain Python
generator driven by :class:`~repro.sim.kernel.Simulator`.  Virtual time plus
seeded random streams make every experiment replayable bit-for-bit.

Public surface::

    sim = Simulator(seed=7)
    proc = sim.spawn(my_generator(), name="client-0")
    sim.run()                      # drain all events
    result = sim.run_process(g()) # drive one coroutine to completion

Inside a coroutine::

    yield sim.sleep(0.5)           # advance virtual time
    yield event.wait()             # block on an Event
    item = yield queue.get()
    yield from resource.use(0.002) # hold a FIFO service centre
"""

from repro.sim.kernel import Process, Simulator
from repro.sim.resources import Resource
from repro.sim.sync import Event, Gate, Queue, wait_until

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Queue",
    "Gate",
    "wait_until",
    "Resource",
]
