"""The kernel contract, enforced against BOTH runtimes.

Every test here runs once under the deterministic :class:`Simulator`
and once under :class:`WallRuntime` — the whole point of the runtime
API is that protocol code cannot tell which scheduler is underneath, so
the contract tests must not be able to either.  Timings use small wall
delays; assertions are about *ordering and semantics*, never latency.
"""

import gc
import time

import pytest

from repro.errors import (
    ProcessKilled,
    ReproError,
    SimulationError,
    SimulationStalled,
)
from repro.net import ChannelClosed
from repro.runtime import make_runtime
from repro.sim.kernel import KILLED
from repro.sim.sync import Event, Gate, OneShot, Queue


@pytest.fixture(params=["sim", "wall"])
def rt(request):
    runtime = make_runtime(request.param, seed=0)
    yield runtime
    runtime.stop()


def make_network(runtime):
    """The runtime's native network substrate (same Channel contract)."""
    if runtime.clock == "wall":
        from repro.runtime import TcpNetwork

        return TcpNetwork(runtime)
    from repro.net import LatencyModel, Network

    return Network(runtime, latency=LatencyModel(base=0.001))


# ------------------------------------------------------------------ processes


def test_spawn_rejects_a_non_generator_iterator(rt):
    with pytest.raises(SimulationError, match="needs a generator"):
        rt.spawn(iter([1, 2]), name="not-a-generator")


def test_non_daemon_failure_aborts_run_naming_the_process(rt):
    def crasher():
        yield rt.sleep(0.01)
        raise ValueError("bad")

    rt.spawn(crasher(), name="crasher")
    with pytest.raises(SimulationError, match="process 'crasher' failed") as info:
        rt.run()
    assert isinstance(info.value.__cause__, ValueError)


def test_run_process_of_a_killed_process_raises_process_killed(rt, monkeypatch):
    spawned = []
    spawn = rt.spawn

    def recording_spawn(gen, name="?", daemon=False):
        spawned.append(spawn(gen, name=name, daemon=daemon))
        return spawned[-1]

    monkeypatch.setattr(rt, "spawn", recording_spawn)

    def killer():
        yield rt.sleep(0.01)
        spawned[-1].kill()  # run_process's own process, spawned after us

    def victim():
        yield Event().wait()

    rt.spawn(killer(), name="killer")
    with pytest.raises(ProcessKilled, match="'victim' was killed"):
        rt.run_process(victim(), name="victim")


def test_blocked_process_with_no_pending_work_stalls(rt):
    def stuck():
        yield Event().wait()

    with pytest.raises(SimulationStalled, match="while 'stuck' was still blocked"):
        rt.run_process(stuck(), name="stuck")


def test_spawn_run_and_return_value(rt):
    def proc():
        yield rt.sleep(0.01)
        return "done"

    assert rt.run_process(proc()) == "done"
    assert rt.now >= 0.01


def test_kill_while_blocked_runs_cleanup_and_fails_joiners(rt):
    """Killing a process blocked on a queue closes its generator (the
    ``finally`` runs) and resumes joiners with :class:`ProcessKilled`."""
    inbox = Queue("inbox")
    log = []

    def blocked():
        try:
            yield inbox.get()
        finally:
            log.append("cleanup")

    victim = rt.spawn(blocked(), name="victim", daemon=True)

    def killer():
        yield rt.sleep(0.01)
        victim.kill()
        assert log == ["cleanup"]
        try:
            yield victim.join()
        except ProcessKilled:
            log.append("join-raised")

    rt.run_process(killer())
    assert victim.state == KILLED
    assert log == ["cleanup", "join-raised"]


def test_kill_while_blocked_on_sleep(rt):
    def sleeper():
        yield rt.sleep(60.0)

    victim = rt.spawn(sleeper(), name="sleeper", daemon=True)

    def killer():
        yield rt.sleep(0.01)
        victim.kill()

    started = time.monotonic()
    rt.run_process(killer())
    assert victim.state == KILLED
    # the victim's 60s timer must not keep the run alive
    assert time.monotonic() - started < 30.0


def test_run_does_not_wait_out_a_killed_sleepers_timer(rt):
    """Killing a process in a strong ``sleep`` cancels its timer: ``run()``
    ends at the kill instead of when the 3 s sleep would have ended."""

    def sleeper():
        yield rt.sleep(3.0)

    victim = rt.spawn(sleeper(), name="sleeper")

    def killer():
        yield rt.sleep(0.01)
        victim.kill()

    rt.spawn(killer(), name="killer")
    started = time.monotonic()
    rt.run()
    assert victim.state == KILLED
    assert time.monotonic() - started < 1.0
    if rt.clock == "sim":
        assert rt.now == 0.01


def test_process_killed_in_join_leaves_the_targets_joiners(rt):
    """A process killed while blocked in ``join()`` is taken off the
    target's joiners, so the target finishing does not resume it."""
    release = Event()
    log = []

    def target():
        yield release.wait()
        return "result"

    def joiner():
        log.append((yield target_process.join()))

    target_process = rt.spawn(target(), name="target")
    joining = rt.spawn(joiner(), name="joiner")

    def killer():
        yield rt.sleep(0.01)
        assert target_process._joiners == [joining]
        joining.kill()
        assert target_process._joiners == []
        release.set()

    rt.spawn(killer(), name="killer")
    rt.run()
    assert target_process.result == "result"
    assert joining.state == KILLED
    assert log == []


@pytest.mark.parametrize("kind", ["sim", "wall"])
def test_ended_processes_are_not_retained(kind):
    """Every update transaction spawns processes that end with it (one
    ``_run_entry`` per replica).  Over 500 transactions the live process
    count stays flat, and no ended process stays reachable — neither
    through the runtime's bookkeeping nor anywhere else."""
    from repro.client import Driver
    from repro.core import ClusterConfig, SIRepCluster
    from repro.sim.kernel import Process

    cluster = SIRepCluster(ClusterConfig(n_replicas=3, seed=0, runtime=kind))
    rt = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": k, "v": 0} for k in range(10)])
    driver = Driver(cluster.network, cluster.discovery)
    spawned = []
    spawn = rt.spawn

    def counting_spawn(gen, name="?", daemon=False):
        spawned.append(name)
        return spawn(gen, name=name, daemon=daemon)

    rt.spawn = counting_spawn
    counts = {}

    def census():
        """(live, still reachable) processes of this runtime."""
        gc.collect()
        reachable = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Process) and obj.sim is rt
        ]
        live = sum(1 for process in reachable if process.alive)
        if kind == "wall":
            assert len(rt.processes) == live
        else:
            assert not hasattr(rt, "processes")
        return live, len(reachable)

    def client():
        conn = yield from driver.connect(cluster.new_client_host())
        for i in range(1, 501):
            yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (i, i % 10))
            yield from conn.commit()
            if i in (100, 500):
                yield rt.sleep(0.05)  # the remote replicas finish applying
                counts[i] = census()

    try:
        rt.run_process(client())
    finally:
        cluster.stop()
    assert len(spawned) > 1500  # the transactions did spawn processes
    assert counts[500] == counts[100]


# -------------------------------------------------------------------- timers


def test_weak_sleep_never_keeps_the_run_alive(rt):
    """A daemon blocked on a weak 60s sleep must not delay ``run``
    returning once all strong work has drained."""
    woke = []

    def monitor():
        yield rt.sleep(60.0, weak=True)
        woke.append(True)

    def main():
        yield rt.sleep(0.01)
        return "finished"

    rt.spawn(monitor(), name="monitor", daemon=True)
    started = time.monotonic()
    assert rt.run_process(main()) == "finished"
    assert time.monotonic() - started < 30.0
    assert not woke


def test_call_at_fires_in_order(rt):
    fired = []

    def main():
        rt.call_at(rt.now + 0.03, lambda: fired.append("late"))
        rt.call_at(rt.now + 0.01, lambda: fired.append("early"))
        yield rt.sleep(0.06)
        return list(fired)

    assert rt.run_process(main()) == ["early", "late"]


def boom():
    raise ValueError("boom")


@pytest.mark.parametrize("delay", [0.0, 0.01])
def test_raising_call_at_callback_surfaces_from_run(rt, delay):
    """A ``call_at`` callback that raises aborts ``run()`` with its error
    reachable: raw on the simulator, as the ``__cause__`` of a
    :class:`SimulationError` that names the callback on the wall clock."""
    rt.call_at(rt.now + delay, boom)
    with pytest.raises(Exception) as info:
        rt.run()
    if rt.clock == "sim":
        assert isinstance(info.value, ValueError)
    else:
        assert isinstance(info.value, SimulationError)
        assert "timer:'boom'" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)


# -------------------------------------------------------------------- queues


@pytest.mark.parametrize("primitive", ["event", "queue", "gate"])
def test_waiters_resume_in_the_order_they_blocked(rt, primitive):
    """FIFO wake-up: processes parked on one primitive resume in the
    order they blocked, whichever queue the scheduler puts them on."""
    event, queue, gate = Event(), Queue("q"), Gate("g")
    blocked, resumed = [], []

    def waiter(index):
        blocked.append(index)
        if primitive == "event":
            yield event.wait()
        elif primitive == "queue":
            assert (yield queue.get()) == len(resumed)
        else:
            yield gate.wait()
        resumed.append(index)

    def main():
        for index in (3, 0, 7, 1, 6, 2, 5, 4):
            rt.spawn(waiter(index), name=f"w{index}")
            yield rt.sleep(0.001)  # it has blocked before the next spawns
        if primitive == "event":
            event.set()
        elif primitive == "queue":
            for item in range(len(blocked)):
                queue.put(item)
        else:
            gate.notify_all()
        yield rt.sleep(0.01)
        return resumed

    assert rt.run_process(main()) == blocked


def test_resumes_scheduled_while_draining_run_after_those_queued(rt):
    """Zero-delay callbacks run in scheduling order, and one scheduled by
    a running callback runs after every callback already queued: three
    generations of a binary tree run breadth-first."""
    order = []

    def step(label):
        order.append(label)
        if len(label) < 3:
            rt._schedule(0.0, step, label + "a")
            rt._schedule(0.0, step, label + "b")

    for label in "xyz":
        rt._schedule(0.0, step, label)
    rt.run()
    generation, expected = ["x", "y", "z"], []
    while generation:
        expected += generation
        generation = [g + c for g in generation if len(g) < 3 for c in "ab"]
    assert order == expected


def test_zero_delay_schedule_skips_the_timer_heap(monkeypatch):
    """On the wall runtime a resume (``_schedule`` with delay 0) goes on
    the runtime's ready queue, never onto the timer heap, and each loop
    turn drains that queue once, not once per resume."""
    from repro.runtime import WallRuntime, wall

    rt = WallRuntime(seed=0)
    delays, resumes, drains = [], [], []
    push, schedule, run_ready = wall.heappush, rt._schedule, rt._run_ready

    def spy_push(heap, entry):
        delays.append(entry[0] - wall._monotonic())
        push(heap, entry)

    def counted_schedule(delay, callback, arg, weak=False):
        if not delay:
            resumes.append(callback)
        return schedule(delay, callback, arg, weak)

    def counted_drain():
        drains.append(len(rt._ready))
        run_ready()

    monkeypatch.setattr(wall, "heappush", spy_push)
    monkeypatch.setattr(rt, "_schedule", counted_schedule)
    monkeypatch.setattr(rt, "_run_ready", counted_drain)
    inbox = Queue("inbox")

    def consumer():
        got = []
        for _ in range(3):
            got.append((yield inbox.get()))
        return got

    def main():
        worker = rt.spawn(consumer(), name="consumer")
        for item in range(3):
            inbox.put(item)
        rt.call_at(rt.now - 1.0, lambda: None)  # clamped to "now"
        return (yield worker.join())

    try:
        turns = rt.turns
        assert rt.run_process(main()) == [0, 1, 2]
        assert delays == []
        # resumes: main's spawn, consumer's spawn, the clamped call_at,
        # three gets, main's join; main's first step queues the next
        # two together, so six drains, one per turn
        assert len(resumes) == 7
        assert drains == [1, 2, 1, 1, 1, 1]
        assert rt.turns - turns == len(drains)
    finally:
        rt.stop()


def test_spinning_process_does_not_starve_a_channel_round_trip():
    """A drain runs only what was queued when it started, so the loop
    still polls its sockets between the resumes of a process looping on
    ``sleep(0)`` (the simulator would spin forever: virtual time never
    advances past the spinner's next step)."""
    from repro.runtime import TcpNetwork, WallRuntime

    rt = WallRuntime(seed=0)
    net = TcpNetwork(rt)
    client = net.register("client")
    server = net.register("server")
    spins, done, cap = [0], [], 100_000

    def spinner():
        while not done and spins[0] < cap:
            spins[0] += 1
            yield rt.sleep(0)

    def server_proc():
        end = yield server.accept()
        for _ in range(20):
            end.send((yield from end.recv()))

    def client_proc():
        channel = net.connect(client, "server")
        for i in range(20):
            channel.client_end.send(i)
            assert (yield from channel.client_end.recv()) == i
        done.append(True)
        return spins[0]

    try:
        rt.spawn(spinner(), name="spinner", daemon=True)
        rt.spawn(server_proc(), name="server")
        assert 0 < rt.run_process(client_proc()) < cap
    finally:
        rt.stop()


def test_stop_drops_queued_resumes():
    """``stop()`` with zero-delay resumes still queued drops them: no
    strong work is left counted and nothing runs again — not a process
    looping on ``sleep(0)``, and not a raw callback that re-schedules
    itself, which no kill ends."""
    from repro.runtime import WallRuntime

    rt = WallRuntime(seed=0)
    steps, ticks = [], []

    def spinner():
        while True:
            steps.append(rt.now)
            yield rt.sleep(0)

    def tick(_arg):
        ticks.append(rt.now)
        rt._schedule(0.0, tick, None)

    process = rt.spawn(spinner(), name="spinner", daemon=True)
    rt._schedule(0.0, tick, None)
    rt.run(until=0.01)
    assert len(rt._ready) == rt._strong == 2
    rt.stop()
    assert process.state == KILLED
    assert not rt._ready and rt._strong == 0
    taken = len(steps), len(ticks)
    rt._schedule(0.0, process._step_if_alive, None)
    rt._schedule(0.0, tick, None)
    assert not rt._ready and rt._strong == 0
    assert (len(steps), len(ticks)) == taken


def test_one_shot_round_trip(rt):
    slot = OneShot()

    def producer():
        yield rt.sleep(0.01)
        slot.resolve(42)

    def consumer():
        value = yield slot.wait()
        return value

    rt.spawn(producer(), name="producer")
    assert rt.run_process(consumer()) == 42


# ------------------------------------------------------------ blocking calls


def test_run_blocking_returns_the_result_and_raises_the_error(rt):
    def proc():
        value = yield from rt.run_blocking(lambda: 41 + 1)
        with pytest.raises(ZeroDivisionError):
            yield from rt.run_blocking(lambda: 1 / 0)
        return value

    assert rt.run_process(proc()) == 42


def test_run_blocking_schedules_nothing_on_the_simulator():
    """Inline on the simulator: no event, so the event stream of a run
    is the same as if the call were not made."""
    from repro.sim import Simulator

    sim = Simulator(seed=0)
    call = sim.run_blocking(lambda: "done")
    with pytest.raises(StopIteration) as stop:
        next(call)
    assert stop.value.value == "done"
    assert sim._heap == [] and sim._seq == 0


def test_run_does_not_return_while_a_blocking_call_is_pending():
    """On the wall runtime the call runs on the I/O thread; it holds an
    I/O token, so ``run()`` cannot mistake the wait for quiescence."""
    import threading

    from repro.runtime import WallRuntime

    rt = WallRuntime(seed=0)
    release = threading.Event()
    got = []

    def proc(index):
        got.append((yield from rt.run_blocking(
            lambda: release.wait(10.0) and index
        )))

    try:
        for index in range(3):
            rt.spawn(proc(index), name=f"p{index}", daemon=True)
        timer = threading.Timer(0.1, release.set)
        # read the clock first: the timer's 0.1 s wait starts in start()
        started = time.monotonic()
        timer.start()
        rt.run()
        assert release.is_set()
        assert time.monotonic() - started >= 0.1
        assert sorted(got) == [0, 1, 2]
        timer.join(10.0)
        assert not timer.is_alive()
    finally:
        rt.stop()


# ------------------------------------------------------------------ channels


def test_channel_round_trip(rt):
    net = make_network(rt)
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
        return reply

    rt.spawn(server_proc(), name="server")
    assert rt.run_process(client_proc()) == "ping-reply"


def test_channel_break_drains_in_flight_then_raises(rt):
    """FIFO-then-break: data sent before the crash is delivered, the
    break arrives strictly behind it as :class:`ChannelClosed`."""
    net = make_network(rt)
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        end = yield server.accept()
        for i in range(3):
            end.send(f"msg-{i}")
        # crashed from outside right after sending: all three frames
        # are already on the wire

    def client_proc():
        channel = net.connect(client, "server")
        yield rt.sleep(0.05)  # let the frames land, then crash the peer
        net.crash("server")
        got = []
        for _ in range(3):
            got.append((yield from channel.client_end.recv()))
        assert got == ["msg-0", "msg-1", "msg-2"]
        with pytest.raises(ChannelClosed):
            yield from channel.client_end.recv()
        return True

    rt.spawn(server_proc(), name="server")
    assert rt.run_process(client_proc()) is True


def test_register_and_duplicate_address(rt):
    """A live address is taken; a crashed host's address may be
    registered again (a recovered replica keeps its identity)."""
    net = make_network(rt)
    first = net.register("a")
    with pytest.raises(ReproError, match="duplicate"):
        net.register("a")
    net.crash("a")
    again = net.register("a")
    assert again is not first and again.alive and not first.alive
    assert net.host("a") is again


def test_connect_to_crashed_host_raises(rt):
    net = make_network(rt)
    client = net.register("client")
    net.register("server")
    net.crash("server")

    def client_proc():
        for address in ("server", "nowhere"):
            with pytest.raises(ChannelClosed):
                net.connect(client, address)
        yield rt.sleep(0)
        return True

    assert rt.run_process(client_proc()) is True


def test_send_to_crashed_host_is_dropped(rt):
    net = make_network(rt)
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        yield server.accept()

    def client_proc():
        channel = net.connect(client, "server")
        yield rt.sleep(0.05)
        net.crash("server")
        channel.client_end.send("into the void")  # must not raise
        with pytest.raises(ChannelClosed):
            yield from channel.client_end.recv()
        return True

    rt.spawn(server_proc(), name="server")
    assert rt.run_process(client_proc()) is True


def test_recv_after_break_keeps_raising(rt):
    """The crash lands before the wall runtime has a socket for the
    channel, so late establishment is refused too."""
    net = make_network(rt)
    client = net.register("client")
    net.register("server")

    def client_proc():
        channel = net.connect(client, "server")
        net.crash("server")
        for _ in range(2):
            with pytest.raises(ChannelClosed):
                yield from channel.client_end.recv()
        return True

    assert rt.run_process(client_proc()) is True


def test_local_close_breaks_both_ends(rt):
    net = make_network(rt)
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        end = yield server.accept()
        with pytest.raises(ChannelClosed):
            yield from end.recv()
        return True

    def client_proc():
        channel = net.connect(client, "server")
        yield rt.sleep(0.05)
        channel.close()
        assert channel.client_end.closed
        with pytest.raises(ChannelClosed):
            yield from channel.client_end.recv()
        return True

    worker = rt.spawn(server_proc(), name="server")
    assert rt.run_process(client_proc()) is True

    def waiter():
        return (yield worker.join())

    assert rt.run_process(waiter()) is True


def test_orderly_close_flushes_before_break(rt):
    """``close()`` is FIN, not RST: frames sent before the close are
    delivered before the receiver sees :class:`ChannelClosed`."""
    net = make_network(rt)
    client = net.register("client")
    server = net.register("server")

    def server_proc():
        end = yield server.accept()
        got = []
        try:
            while True:
                got.append((yield from end.recv()))
        except ChannelClosed:
            pass
        return got

    def client_proc():
        channel = net.connect(client, "server")
        channel.client_end.send("one")
        channel.client_end.send("two")
        channel.close()
        yield rt.sleep(0)

    worker = rt.spawn(server_proc(), name="server")
    rt.spawn(client_proc(), name="client")

    def waiter():
        got = yield worker.join()
        return got

    assert rt.run_process(waiter()) == ["one", "two"]
