"""The simulated network's hop timing and latency model.

The channel contract itself (registration, connect, crash, break, close)
runs against both runtimes in ``tests/runtime/test_kernel_contract.py``.
"""

import pytest

from repro.errors import ReproError
from repro.net import ChannelClosed, LatencyModel, Network
from repro.sim import Simulator


def make_net(base=0.001, jitter=0.0):
    sim = Simulator(seed=3)
    net = Network(sim, latency=LatencyModel(base=base, jitter=jitter))
    return sim, net


def test_connect_send_recv_round_trip():
    sim, net = make_net(base=0.001)
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        end = yield server.accept()
        request = yield from end.recv()
        end.send(request + "-reply")

    def client_proc():
        channel = net.connect(client, "server")
        channel.client_end.send("ping")
        reply = yield from channel.client_end.recv()
        return reply, sim.now

    sim.spawn(server_proc(), name="server")
    reply, t = sim.run_process(client_proc())
    assert reply == "ping-reply"
    assert t == pytest.approx(0.002)  # two hops


def test_fifo_ordering_with_jitter():
    sim = Simulator(seed=11)
    net = Network(sim, latency=LatencyModel(base=0.001, jitter=0.005, rng=sim.rng("net")))
    client = net.register("client")
    server = net.register("server")
    received = []

    def server_proc():
        end = yield server.accept()
        for _ in range(20):
            received.append((yield from end.recv()))

    def client_proc():
        channel = net.connect(client, "server")
        for i in range(20):
            channel.client_end.send(i)
            yield sim.sleep(0.0001)

    sim.spawn(server_proc(), name="server")
    sim.spawn(client_proc(), name="client")
    sim.run()
    assert received == list(range(20))


def test_connect_to_unknown_or_dead_host_fails():
    """Connecting outside any process fails at once on the simulator."""
    sim, net = make_net()
    client = net.register("client")
    with pytest.raises(ChannelClosed):
        net.connect(client, "nowhere")
    net.register("server")
    net.crash("server")
    with pytest.raises(ChannelClosed):
        net.connect(client, "server")


def test_crash_breaks_channel_for_survivor():
    sim, net = make_net()
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        yield server.accept()
        # server never replies; it will be crashed

    def client_proc():
        channel = net.connect(client, "server")
        sim.call_at(1.0, lambda: net.crash("server"))
        with pytest.raises(ChannelClosed):
            yield from channel.client_end.recv()
        return sim.now

    sim.spawn(server_proc(), name="server")
    t = sim.run_process(client_proc())
    assert t >= 1.0


def test_messages_sent_before_crash_are_drained_before_break():
    """FIFO break: in-flight data from the dead peer arrives first."""
    sim, net = make_net(base=0.010)
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        end = yield server.accept()
        end.send("last-words")
        # crash right after sending: message is on the wire

    def client_proc():
        channel = net.connect(client, "server")
        sim.call_at(0.001, lambda: net.crash("server"))
        message = yield from channel.client_end.recv()
        assert message == "last-words"
        with pytest.raises(ChannelClosed):
            yield from channel.client_end.recv()
        return True

    sim.spawn(server_proc(), name="server")
    assert sim.run_process(client_proc()) is True


def test_latency_model_without_rng_requires_no_jitter():
    # jitter-free models never draw randomness, so no RNG is fine...
    model = LatencyModel(base=0.004, jitter=0.0, rng=None)
    assert model.sample() == 0.004
    # ...but jitter with no RNG bound is a configuration error, not a
    # silent fall-back to determinism
    with pytest.raises(ReproError):
        LatencyModel(base=0.004, jitter=0.01, rng=None).sample()


def test_latency_model_jitter_bounds():
    sim = Simulator(seed=5)
    model = LatencyModel(base=0.001, jitter=0.002, rng=sim.rng("lat"))
    for _ in range(100):
        sample = model.sample()
        assert 0.001 <= sample <= 0.003
