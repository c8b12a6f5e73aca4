"""Discovery service tests."""

from repro.gcs import DiscoveryService
from repro.sim import Simulator


def discover(sim, service):
    return sim.run_process(service.discover())


def test_empty_discovery():
    sim = Simulator()
    service = DiscoveryService(sim)
    assert discover(sim, service) == []


def test_register_and_discover():
    sim = Simulator()
    service = DiscoveryService(sim)
    service.register("a")
    service.register("b")
    assert sorted(discover(sim, service)) == ["a", "b"]


def test_unregister():
    sim = Simulator()
    service = DiscoveryService(sim)
    service.register("a")
    service.register("b")
    service.unregister("a")
    service.unregister("missing")  # no-op
    assert discover(sim, service) == ["b"]


def test_overloaded_replica_declines():
    """'Replicas that are able to handle additional workload respond.'"""
    sim = Simulator()
    service = DiscoveryService(sim)
    load = {"busy": True}
    service.register("a", accepts_load=lambda: not load["busy"])
    service.register("b")
    assert discover(sim, service) == ["b"]
    load["busy"] = False
    assert sorted(discover(sim, service)) == ["a", "b"]


def test_discovery_costs_a_round_trip():
    sim = Simulator()
    service = DiscoveryService(sim)
    service.round_trip = 0.005
    service.register("a")

    def proc():
        addresses = yield from service.discover()
        return addresses, sim.now

    addresses, at = sim.run_process(proc())
    assert addresses == ["a"]
    assert at == 0.005


def test_roles_are_disjoint_views():
    """Read replicas register under role="read"; the default (write)
    discovery never sees them and vice versa."""
    sim = Simulator()
    service = DiscoveryService(sim)
    service.register("R0")
    service.register("R1", role="write")
    service.register("Rr0", role="read")
    assert sorted(discover(sim, service)) == ["R0", "R1"]
    assert sim.run_process(service.discover(role="read")) == ["Rr0"]
    assert sim.run_process(service.discover(role="other")) == []


def test_reader_churn_leaves_write_view_untouched():
    """Joining/leaving read replicas must not disturb the voting
    membership view the driver's failover case analysis relies on."""
    sim = Simulator()
    service = DiscoveryService(sim)
    for name in ("R0", "R1", "R2"):
        service.register(name)
    before = sorted(discover(sim, service))
    for round_ in range(3):
        service.register(f"Rr{round_}", role="read")
        assert sorted(discover(sim, service)) == before
    service.unregister("Rr0")
    service.unregister("Rr1")
    assert sorted(discover(sim, service)) == before
    assert sim.run_process(service.discover(role="read")) == ["Rr2"]
    # and symmetrically: a crashing voting replica never dents the read view
    service.unregister("R1")
    assert sim.run_process(service.discover(role="read")) == ["Rr2"]


def test_read_role_honors_accepts_load():
    sim = Simulator()
    service = DiscoveryService(sim)
    lagging = {"Rr0": True}
    service.register(
        "Rr0", accepts_load=lambda: not lagging["Rr0"], role="read"
    )
    service.register("Rr1", role="read")
    assert sim.run_process(service.discover(role="read")) == ["Rr1"]
    lagging["Rr0"] = False
    assert sorted(sim.run_process(service.discover(role="read"))) == ["Rr0", "Rr1"]
