"""Queueing service centres: the performance model's CPUs and disks.

A :class:`Resource` is a FIFO queue in front of ``servers`` identical
servers.  A process calls ``yield from resource.use(amount)`` to occupy one
server for ``amount`` virtual seconds.  Saturation of these resources is
what produces the response-time knees in Figures 5-7.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.sync import Event


class Resource:
    """FIFO multi-server service centre with utilization accounting."""

    def __init__(self, sim: Simulator, name: str, servers: int = 1):
        if servers < 1:
            raise SimulationError(f"resource {name!r} needs >= 1 server")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._busy = 0
        self._queue: Deque[tuple[Event, float]] = deque()
        # Accounting
        self.total_service_time = 0.0
        self.jobs_served = 0
        self._accounting_start = sim.now

    # -- core protocol -------------------------------------------------------

    def use(self, amount: float) -> Generator[Any, Any, None]:
        """Occupy one server for ``amount`` seconds (FIFO admission)."""
        if amount < 0:
            raise SimulationError(f"negative service demand: {amount}")
        if self._busy >= self.servers:
            granted = Event()
            self._queue.append((granted, amount))
            yield granted.wait()
        else:
            self._busy += 1
        try:
            yield self.sim.sleep(amount)
        finally:
            self.total_service_time += amount
            self.jobs_served += 1
            self._release()

    def _release(self) -> None:
        if self._queue:
            granted, _amount = self._queue.popleft()
            granted.set(None)
        else:
            self._busy -= 1

    # -- metrics ---------------------------------------------------------------

    def utilization(self) -> float:
        """Mean fraction of server capacity busy since accounting start."""
        elapsed = self.sim.now - self._accounting_start
        if elapsed <= 0:
            return 0.0
        return self.total_service_time / (elapsed * self.servers)
