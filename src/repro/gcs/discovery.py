"""Driver discovery, modelling the paper's fixed IP-multicast address.

"The middleware as a whole has a fixed IP multicast address ...  Upon a
connection request, the SI-Rep JDBC driver multicasts a discovery message
to the multicast address.  Replicas that are able to handle additional
workload respond with their IP address/port." (§5.4)

Replicas register a responder callback; ``discover`` returns, after one
multicast round trip, the addresses of the replicas that answered.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim import Simulator


class DiscoveryService:
    """The well-known multicast rendezvous for the whole middleware."""

    #: sim-seconds one discovery multicast and its answers take
    round_trip = 0.001

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._responders: dict[str, tuple[Callable[[], bool], str]] = {}

    def register(self, address: str,
                 accepts_load: Optional[Callable[[], bool]] = None,
                 role: str = "write") -> None:
        """Announce a middleware replica at ``address``.

        ``accepts_load`` lets a replica decline discovery responses when
        overloaded; by default it always responds while registered.
        ``role`` distinguishes full voting replicas (``"write"``, the
        default — they serve everything) from lazy read replicas
        (``"read"``); discovery filters by role so a read replica
        joining or leaving never changes what a plain write-path
        ``discover()`` returns.
        """
        self._responders[address] = (accepts_load or (lambda: True), role)

    def unregister(self, address: str) -> None:
        self._responders.pop(address, None)

    def discover(self, role: str = "write") -> Generator[object, object, list[str]]:
        """One multicast round trip; returns willing replica addresses
        registered under ``role``."""
        yield self.sim.sleep(self.round_trip)
        return [
            addr
            for addr, (willing, addr_role) in self._responders.items()
            if addr_role == role and willing()
        ]
