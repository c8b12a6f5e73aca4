"""Execution backends for the SI-Rep protocol: one protocol, two schedulers.

* ``make_runtime("sim")`` — the deterministic discrete-event simulator
  (:class:`repro.sim.Simulator`).
* ``make_runtime("wall")`` — :class:`WallRuntime`: wall-clock timers on
  the runtime's own selector loop, TCP sockets behind the Channel
  semantics, fsync-backed durability.  ``AsyncioRuntime`` is its
  former name.

See :mod:`repro.runtime.api` for the kernel interface both implement.
"""

from repro.runtime.api import Runtime, make_runtime
from repro.runtime.tcpbus import TcpGroupBus, TcpGroupMember
from repro.runtime.tcpnet import TcpChannel, TcpChannelEnd, TcpHost, TcpNetwork
from repro.runtime.wall import WallRuntime

AsyncioRuntime = WallRuntime

__all__ = [
    "Runtime",
    "make_runtime",
    "WallRuntime",
    "AsyncioRuntime",
    "TcpNetwork",
    "TcpHost",
    "TcpChannel",
    "TcpChannelEnd",
    "TcpGroupBus",
    "TcpGroupMember",
]
