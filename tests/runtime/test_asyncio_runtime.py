"""AsyncioRuntime-specific behavior: graceful shutdown and resource hygiene.

The contract tests prove the wall runtime schedules like the simulator;
these prove it *cleans up* like a real server — ``stop()`` fails blocked
waiters instead of leaking them, closes every socket and timer, and a
process can start and stop clusters repeatedly without accumulating
file descriptors or hanging.
"""

import os
import sys
import threading
import time

import pytest

from repro.errors import RuntimeStopped
from repro.runtime import AsyncioRuntime, Runtime, make_runtime
from repro.sim.sync import OneShot, Queue


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_make_runtime_kinds():
    from repro.errors import ReproError
    from repro.sim import Simulator

    assert isinstance(make_runtime("sim"), Simulator)
    wall = make_runtime("wall")
    assert isinstance(wall, AsyncioRuntime)
    # one nominal base, exported where the structural type used to be
    assert issubclass(Simulator, Runtime) and isinstance(wall, Runtime)
    wall.stop()
    with pytest.raises(ReproError):
        make_runtime("quantum")


def test_wall_clock_actually_elapses():
    rt = AsyncioRuntime(seed=0)
    try:
        started = time.monotonic()

        def proc():
            yield rt.sleep(0.05)
            return rt.now

        now = rt.run_process(proc())
        elapsed = time.monotonic() - started
        assert now >= 0.05
        assert elapsed >= 0.05
    finally:
        rt.stop()


def test_rng_streams_match_simulator():
    """Cross-runtime comparability: the same seed yields the same
    per-stream random sequences on both runtimes."""
    from repro.sim import Simulator

    sim = Simulator(seed=7)
    rt = AsyncioRuntime(seed=7)
    try:
        for stream in ("net", "gcs", "wl"):
            assert [rt.rng(stream).random() for _ in range(5)] == [
                sim.rng(stream).random() for _ in range(5)
            ]
    finally:
        rt.stop()


def test_stop_fails_pending_one_shot_waiters():
    """The shutdown sweep throws :class:`RuntimeStopped` into every
    process still blocked on an event — the OneShot ``fail`` path — so
    nothing is silently abandoned mid-request."""
    rt = AsyncioRuntime(seed=0)
    slot = OneShot()
    log = []

    def waiter():
        try:
            yield slot.wait()
            log.append("resolved")
        except RuntimeStopped:
            log.append("stopped")

    rt.spawn(waiter(), name="waiter", daemon=True)

    def settle():
        yield rt.sleep(0.01)

    rt.run_process(settle())
    assert log == []  # still parked on the slot
    rt.stop()
    assert log == ["stopped"]


def test_stop_is_idempotent_and_cancels_timers():
    rt = AsyncioRuntime(seed=0)
    fired = []

    def proc():
        rt.call_at(rt.now + 60.0, lambda: fired.append("late"))
        yield rt.sleep(0.01)

    rt.run_process(proc())
    rt.stop()
    rt.stop()  # second stop must be a no-op, not an error
    assert not fired
    assert not rt._timers


def test_twenty_cluster_cycles_leak_nothing(tmp_path):
    """Regression for shutdown hygiene: start and stop a wall-clock
    cluster 20 times in one process.  No leaked listening sockets, event
    loops or writeset-log handles (file-descriptor count stays flat), no
    I/O thread left behind by the fsync'd log, and no hangs."""
    from repro.client import Driver
    from repro.core import ClusterConfig, SIRepCluster
    from repro.durable import DurabilityConfig

    # a warmup cycle lets lazy imports/caches allocate their fds
    baseline = None
    threads = threading.active_count()
    for cycle in range(20):
        cluster = SIRepCluster(
            ClusterConfig(
                n_replicas=2, seed=cycle, runtime="wall",
                durability=DurabilityConfig(log_dir=tmp_path / f"wal{cycle}"),
            )
        )
        sim = cluster.sim
        cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
        cluster.bulk_load("kv", [{"k": 1, "v": 0}])
        driver = Driver(cluster.network, cluster.discovery)

        def one_commit():
            conn = yield from driver.connect(cluster.new_client_host())
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = 1", (cycle,)
            )
            yield from conn.commit()
            return True

        assert sim.run_process(one_commit()) is True
        sim.run()  # the commit's log record is forced on the I/O thread
        assert all(r.wslog.durable_seq == r.wslog.tip_seq for r in cluster.replicas)
        assert threading.active_count() > threads
        cluster.stop()
        assert threading.active_count() == threads
        if cycle == 0:
            baseline = open_fds()
    assert baseline is not None
    # allow a little slack for interpreter-internal churn, but leaked
    # sockets/pipes/loops would add several fds per cycle
    assert open_fds() <= baseline + 4


def test_blocking_calls_survive_thread_switch_stress():
    """Many processes hand calls to the I/O thread while the interpreter
    switches threads as often as it can: no call is lost, none runs
    twice, and no wake-up is missed (a lost one would hang until the
    watchdog fires)."""
    rt = AsyncioRuntime(seed=0)
    results = []

    def worker(index):
        for step in range(25):
            results.append((yield from rt.run_blocking(lambda: (index, step))))

    def main():
        workers = [rt.spawn(worker(i), name=f"w{i}") for i in range(8)]
        for process in workers:
            yield process.join()

    def watchdog():
        raise TimeoutError("blocking calls did not complete")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rt.call_at(20.0, watchdog)
        rt.run_process(main())
    finally:
        sys.setswitchinterval(interval)
        rt.stop()
    assert sorted(results) == [(i, s) for i in range(8) for s in range(25)]


def test_scheduling_makes_no_cyclic_garbage():
    """Resumes, a timed sleep and TCP round trips are freed by
    refcounting alone: with the collector off and every unreachable
    object saved, a collection finds no timer, asyncio handle or process
    — none of them sits in a reference cycle."""
    import asyncio
    import gc

    from repro.runtime import TcpNetwork
    from repro.runtime.asyncio_rt import _Timer
    from repro.sim.kernel import Process

    rt = AsyncioRuntime(seed=0)
    net = TcpNetwork(rt)
    client = net.register("client")
    server = net.register("server")
    ping, pong = Queue("ping"), Queue("pong")

    def echo():
        end = yield server.accept()
        for _ in range(200):
            end.send((yield from end.recv()))

    def ponger():
        for _ in range(1000):
            pong.put((yield ping.get()))

    def main():
        for i in range(1000):  # 2000 resumes
            ping.put(i)
            assert (yield pong.get()) == i
        yield rt.sleep(0.01)
        channel = net.connect(client, "server")
        for i in range(200):
            channel.client_end.send(i)
            assert (yield from channel.client_end.recv()) == i
        return True

    rt.spawn(echo(), name="echo")
    rt.spawn(ponger(), name="ponger")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert rt.run_process(main()) is True
        gc.collect()
        cyclic = [
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (_Timer, asyncio.Handle, Process))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        rt.stop()
    assert cyclic == []


def test_queue_survives_stop_without_leak_warnings():
    """Processes blocked on queues at stop() are killed cleanly; a
    subsequent fresh runtime in the same process is unaffected."""
    rt = AsyncioRuntime(seed=0)
    q = Queue("q")

    def consumer():
        while True:
            yield q.get()

    rt.spawn(consumer(), name="consumer", daemon=True)

    def settle():
        yield rt.sleep(0.01)

    rt.run_process(settle())
    rt.stop()

    rt2 = AsyncioRuntime(seed=0)
    try:
        def proc():
            yield rt2.sleep(0.01)
            return "fresh"

        assert rt2.run_process(proc()) == "fresh"
    finally:
        rt2.stop()
