"""Outside-in layer trace: timing shims around the calls into each layer.

Nothing under ``src/`` is edited.  For one traced episode the functions
in ``SHIMS`` are replaced — on their class or module, by name — with
wrappers that record a span (name, start, end, parent) and restored by
identity afterwards.  A layer is a ``src/repro/`` package; a span's
layer is the part of its name before the first dot.

* A **plain call** is one span: busy from call to return.
* A **generator** (the system's coroutines, plus iterators such as
  ``Database.scan``) is one span per generator object.  Every resume is
  timed, so the span knows both its *busy* CPU (sum of its steps) and
  its *elapsed* time in the workload's own clock (first resume ->
  finish: real seconds on ``wall-*``, virtual seconds on ``sim-*``).
* A shim stack gives **self time**: a step's CPU minus the CPU of the
  shimmed calls made inside it.  CPU is ``time.process_time_ns`` so a
  blocking ``fsync`` is not billed as CPU; span start/end are
  ``time.perf_counter_ns``.

Recording only happens between ``arm()`` and ``disarm()`` — the measured
phase — but shims are installed before the cluster is built because the
replicas' long-lived loops are created then.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

from repro.client.driver import Connection
from repro.core.replica import ReplicaManager
from repro.core.srca_rep import MiddlewareReplica
from repro.core.tocommit import GroupCommitLog, ToCommitQueue
from repro.core.validation import Certifier
from repro.durable.log import WritesetLog
from repro.gcs.multicast import Batch, GroupBus, GroupMember, Message
from repro.runtime import asyncio_rt, tcpbus, tcpnet
from repro.sim.kernel import Simulator
from repro.sql import executor as sql_executor
from repro.sql import parser as sql_parser
from repro.storage import engine
from repro.workloads.clients import ClientPool

from workloads import BenchmarkCheckFailed, ClosedLoopClients

#: full span records kept per traced episode; later spans still count
#: in every aggregate, they are only left out of trace-<workload>.json
SPAN_LIMIT = 40_000

CALL, GEN, CORO = "call", "gen", "coro"
LAYERS = ("client", "runtime", "gcs", "core", "storage", "sql", "durable")

_perf = time.perf_counter_ns
_cpu = time.process_time_ns


class SpanStats:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "self_cpu_ns", "cpu_ns", "wall_ns", "elapsed")

    def __init__(self) -> None:
        self.calls = 0
        self.self_cpu_ns = 0
        self.cpu_ns = 0
        #: host time inside the span's steps (CPU plus blocking syscalls)
        self.wall_ns = 0
        #: generator spans: first resume -> finish, workload clock seconds
        self.elapsed: list[float] = []


class Tracer:
    def __init__(self) -> None:
        self.armed = False
        #: workload clock (``cluster.sim.now``); set when the cluster exists
        self.clock: Callable[[], float] = time.perf_counter
        #: open steps: [name, span id, wall0, cpu0, child cpu]
        self._stack: list[list] = []
        self._next_id = 0
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        #: (id, parent id, name, start_ns, end_ns, self_cpu_ns)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: (member, gid) -> workload-clock time of the member's multicast,
        #: and the multicast -> own delivery times that came of them
        self.multicast_at: dict[tuple, float] = {}
        self.order_s: list[float] = []

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    # -- the shim stack ---------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _enter(self, name: str, span_id: int) -> Optional[list]:
        if not self.armed:
            return None
        frame = [name, span_id or self._new_id(), _perf(), 0, 0]
        self._stack.append(frame)
        frame[3] = _cpu()
        return frame

    def _leave(self, frame: list) -> int:
        """Close a step; returns its self CPU in ns."""
        cpu1 = _cpu()
        wall1 = _perf()
        stack = self._stack
        while stack and stack.pop() is not frame:
            pass  # an exception unwound past inner frames
        cpu = cpu1 - frame[3]
        self_cpu = cpu - frame[4]
        if stack:
            stack[-1][4] += cpu
        stat = self.stats[frame[0]]
        stat.self_cpu_ns += self_cpu
        stat.cpu_ns += cpu
        stat.wall_ns += wall1 - frame[2]
        return self_cpu

    def _parent_id(self) -> int:
        return self._stack[-2][1] if len(self._stack) > 1 else 0

    def _record(self, span_id, parent, name, start, end, self_cpu) -> None:
        if span_id <= SPAN_LIMIT:
            self.spans.append((span_id, parent, name, start, end, self_cpu))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        frame = self._enter(name, 0)
        if frame is None:
            return fn(*args, **kwargs)
        parent = self._parent_id()
        try:
            return fn(*args, **kwargs)
        finally:
            self_cpu = self._leave(frame)
            self.stats[name].calls += 1
            self._record(frame[1], parent, name, frame[2], _perf(), self_cpu)

    def drive(self, gen, name: str):
        """Run ``gen`` to completion, yielding what it yields, timing
        every resume.  Works for coroutine objects too (``send``/
        ``throw``/``close`` are the whole protocol)."""
        span_id = parent = first_wall = 0
        first_clock = 0.0
        busy = 0
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                frame = self._enter(name, span_id)
                if frame is not None and not span_id:
                    span_id, first_wall = frame[1], frame[2]
                    parent = self._parent_id()
                    first_clock = self.clock()
                try:
                    if error is None:
                        out = gen.send(value)
                    else:
                        pending, error = error, None
                        out = gen.throw(pending)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if frame is not None:
                        busy += self._leave(frame)
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # noqa: BLE001 - re-thrown into gen
                    value, error = None, err
        finally:
            if span_id:
                stat = self.stats[name]
                stat.calls += 1
                if self.armed:
                    stat.elapsed.append(self.clock() - first_clock)
                self._record(span_id, parent, name, first_wall, _perf(), busy)


def _shim(tracer: Tracer, fn: Callable, name: str, kind: str, after) -> Callable:
    if kind == CALL and after is None:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    elif kind == CALL:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if tracer.armed:
                after(tracer, args, result)
            return result
    elif kind == GEN:
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return tracer.drive(fn(*args, **kwargs), name)
    else:
        drive = types.coroutine(tracer.drive)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return drive(fn(*args, **kwargs), name)
    return shim


# -- observers: what timing alone cannot see --------------------------------


def _count_frame_bytes(tracer: Tracer, _args, frame_bytes) -> None:
    tracer.counters["runtime.bytes"] += len(frame_bytes)


def _count_certify(tracer: Tracer, _args, accepted) -> None:
    tracer.counters["core.certified" if accepted else "core.rejected"] += 1


def _writeset_gid(payload) -> Optional[str]:
    if isinstance(payload, tuple) and len(payload) > 1 and payload[0] == "ws":
        return payload[1]
    return None


def _note_multicast(tracer: Tracer, args, _result) -> None:
    member, payload = args[0], args[1]
    gid = _writeset_gid(payload)
    if gid is not None:
        tracer.multicast_at[(member.member_id, gid)] = tracer.clock()


def _note_delivery(tracer: Tracer, args, _result) -> None:
    member, item = args[1], args[2]
    entries = item.entries if isinstance(item, Batch) else (item,)
    for entry in entries:
        if isinstance(entry, Message) and entry.sender == member.member_id:
            sent = tracer.multicast_at.pop(
                (entry.sender, _writeset_gid(entry.payload)), None
            )
            if sent is not None:
                tracer.order_s.append(tracer.clock() - sent)


#: (owner, attribute, span name, kind, observer)
SHIMS = [
    # client: the driver, and the benchmark's / the pool's client loops
    (ClosedLoopClients, "transaction", "client.transaction", GEN, None),
    (Connection, "execute", "client.execute", GEN, None),
    (Connection, "commit", "client.commit", GEN, None),
    (ClientPool, "_client", "client.pool_client", GEN, None),
    # runtime: loopback TCP channels and the pickle frame codec
    (tcpnet.TcpChannelEnd, "send", "runtime.send", CALL, None),
    (tcpnet.TcpChannelEnd, "recv", "runtime.recv", GEN, None),
    (tcpnet, "_frame", "runtime.encode", CALL, _count_frame_bytes),
    (tcpnet, "_read_frame", "runtime.decode", CORO, None),
    # gcs: sender side, sequencer, fan-out, delivery
    (GroupMember, "multicast", "gcs.multicast", CALL, _note_multicast),
    (tcpbus.TcpGroupMember, "multicast", "gcs.multicast", CALL, _note_multicast),
    (GroupBus, "_sequence", "gcs.sequence", CALL, None),
    (GroupBus, "_flush_batch", "gcs.flush_batch", CALL, None),
    (GroupBus, "_fanout", "gcs.fanout", CALL, None),
    (tcpbus.TcpGroupBus, "_fanout", "gcs.fanout", CALL, None),
    (GroupBus, "_deliver", "gcs.deliver", CALL, _note_delivery),
    (tcpbus.TcpGroupBus, "_bus_recv", "gcs.bus_recv", GEN, None),
    (tcpbus.TcpGroupBus, "_member_pump", "gcs.member_pump", GEN, None),
    # core: the middleware replica's loops, certifier, to-commit queue
    (MiddlewareReplica, "_accept_loop", "core.accept_loop", GEN, None),
    (MiddlewareReplica, "_session_loop", "core.session_loop", GEN, None),
    (MiddlewareReplica, "_deliver_loop", "core.deliver_loop", GEN, None),
    (MiddlewareReplica, "_log_flusher", "core.log_flusher", GEN, None),
    (ReplicaManager, "_committer", "core.committer", GEN, None),
    (ReplicaManager, "_run_entry", "core.run_entry", GEN, None),
    (GroupCommitLog, "sync", "core.group_commit_sync", GEN, None),
    (GroupCommitLog, "_flush_loop", "core.group_commit_loop", GEN, None),
    (Certifier, "validate", "core.certify", CALL, _count_certify),
    (ToCommitQueue, "append", "core.tocommit", CALL, None),
    (ToCommitQueue, "extend", "core.tocommit", CALL, None),
    (ToCommitQueue, "remove", "core.tocommit", CALL, None),
    (ToCommitQueue, "blocking_predecessor", "core.tocommit", CALL, None),
    # storage: the engine's transaction API and the executor's callbacks
    (engine.Database, "begin", "storage.begin", CALL, None),
    (engine.Database, "execute", "storage.execute", GEN, None),
    (engine.Database, "commit", "storage.commit", GEN, None),
    (engine.Database, "abort", "storage.abort", CALL, None),
    (engine.Database, "get_writeset", "storage.get_writeset", CALL, None),
    (engine.Database, "apply_writeset", "storage.apply_writeset", GEN, None),
    (engine.Database, "read_row", "storage.read_row", CALL, None),
    (engine.Database, "scan", "storage.scan", GEN, None),
    (engine.Database, "stage_insert", "storage.stage", GEN, None),
    (engine.Database, "stage_update", "storage.stage", GEN, None),
    (engine.Database, "stage_delete", "storage.stage", GEN, None),
    # sql: parse (the engine's imported name) and statement execution
    (engine, "parse_cached", "sql.parse", CALL, None),
    (sql_parser, "parse_cached", "sql.parse", CALL, None),
    (sql_executor, "execute", "sql.execute", GEN, None),
    # durable: writeset log append and group flush (fsync inside)
    (WritesetLog, "append", "durable.append", CALL, None),
    (WritesetLog, "flush", "durable.flush", GEN, None),
    (WritesetLog, "_commit_flush", "durable.commit_flush", CALL, None),
    # sim: the Runtime API, as implemented by either scheduler
    (Simulator, "spawn", "sim.spawn", CALL, None),
    (Simulator, "sleep", "sim.sleep", CALL, None),
    (Simulator, "call_at", "sim.call_at", CALL, None),
    (asyncio_rt.AsyncioRuntime, "spawn", "sim.spawn", CALL, None),
    (asyncio_rt.AsyncioRuntime, "sleep", "sim.sleep", CALL, None),
    (asyncio_rt.AsyncioRuntime, "call_at", "sim.call_at", CALL, None),
]
SCHED_SPANS = ("sim.spawn", "sim.sleep", "sim.call_at")


def install(tracer: Tracer) -> list:
    """Replace every entry point in ``SHIMS``; returns what
    :func:`restore` needs to put the originals back."""
    saved = []
    for owner, attr, name, kind, after in SHIMS:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _shim(tracer, original, name, kind, after))
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- counters read off the public monitoring surface -------------------------


def snapshot(cluster) -> dict:
    """Cumulative counters at one instant; deltas over the measured
    phase turn them into per-transaction figures."""
    metrics = cluster.metrics()
    logs = [r.wslog for r in cluster.replicas if r.wslog is not None]
    holes = [r.manager.holes for r in cluster.replicas]
    return {
        "gcs_deliveries": metrics["gcs_deliveries"],
        "batched_entries": cluster.bus.batched_entries,
        "sequenced_batches": cluster.bus.sequenced_batches,
        "salvaged": metrics["salvaged_total"],
        "fsyncs": sum(log.fsyncs for log in logs),
        "log_flushes": sum(log.flushes for log in logs),
        "log_bytes": sum(log.durable_bytes for log in logs),
        "log_records": sum(log.durable_seq for log in logs),
        "hole_attempts": sum(h.start_attempts for h in holes),
        "hole_waits": sum(h.start_waits for h in holes),
    }


class Hooks:
    """What ``workloads.run_episode`` calls on a traced episode."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.before: dict = {}
        self.after: dict = {}
        self.one_copy_ok: Optional[bool] = None

    def measure_start(self, cluster) -> None:
        self.tracer.clock = lambda sim=cluster.sim: sim.now
        self.before = snapshot(cluster)
        self.tracer.arm()

    def measure_end(self, cluster) -> None:
        self.tracer.disarm()
        self.after = snapshot(cluster)

    def drained(self, cluster) -> None:
        report = cluster.one_copy_report()
        self.one_copy_ok = report.ok
        if not report.ok:
            raise BenchmarkCheckFailed(
                f"1-copy-SI violated on the traced episode: {report.violations[:3]}"
            )

    def delta(self, key: str) -> float:
        return self.after[key] - self.before[key]


# -- per-layer metrics --------------------------------------------------------


def _quantile_ms(samples: list, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, hooks: Hooks, episode, runtime: str) -> dict:
    """The per-layer metrics of one traced episode, by name."""
    stats = tracer.stats
    txns = episode.commits
    updates = episode.update_commits

    def self_us(*names) -> float:
        return sum(stats[n].self_cpu_ns for n in names) / 1000.0

    def cpu_us(*names) -> float:
        return sum(stats[n].cpu_ns for n in names) / 1000.0

    def calls(*names) -> int:
        return sum(stats[n].calls for n in names)

    storage_exec = (
        "storage.execute", "storage.read_row", "storage.scan", "storage.stage",
        "storage.begin",
    )
    statements = calls("storage.execute")
    certify_calls = calls("core.certify")
    sched_calls = calls(*SCHED_SPANS)
    out = {
        "client.execute_ms_p50": _quantile_ms(stats["client.execute"].elapsed, 0.5),
        "client.commit_ms_p50": _quantile_ms(stats["client.commit"].elapsed, 0.5),
        "client.update_p95_ms": _quantile_ms(episode.update_lat, 0.95),
        "client.read_p50_ms": _quantile_ms(episode.read_lat, 0.5),
        "client.read_p95_ms": _quantile_ms(episode.read_lat, 0.95),
        "runtime.frames_per_txn": _ratio(calls("runtime.send"), txns),
        "runtime.bytes_per_txn": _ratio(tracer.counters["runtime.bytes"], txns),
        "runtime.send_us_per_frame": _ratio(
            cpu_us("runtime.send"), calls("runtime.send")
        ),
        "runtime.recv_wait_ms_p50": _quantile_ms(stats["runtime.recv"].elapsed, 0.5),
        "gcs.multicasts_per_update": _ratio(calls("gcs.multicast"), updates),
        "gcs.deliveries_per_update": _ratio(hooks.delta("gcs_deliveries"), updates),
        # unbatched traffic is a stream of batches of one
        "gcs.mean_batch_size": _ratio(
            hooks.delta("batched_entries"), hooks.delta("sequenced_batches")
        ) or 1.0,
        "gcs.order_ms_p50": _quantile_ms(tracer.order_s, 0.5),
        "core.certify_us_per_call": _ratio(cpu_us("core.certify"), certify_calls),
        "core.certify_calls_per_update": _ratio(certify_calls, updates),
        "core.cert_abort_ratio": _ratio(
            tracer.counters["core.rejected"], certify_calls
        ),
        "core.tocommit_us_per_update": _ratio(cpu_us("core.tocommit"), updates),
        "core.hole_wait_fraction": _ratio(
            hooks.delta("hole_waits"), hooks.delta("hole_attempts")
        ),
        "core.salvaged_per_update": _ratio(hooks.delta("salvaged"), updates),
        "storage.execute_us_per_stmt": _ratio(self_us(*storage_exec), statements),
        "storage.commit_us_per_call": _ratio(
            cpu_us("storage.commit"), calls("storage.commit")
        ),
        "storage.apply_us_per_writeset": _ratio(
            cpu_us("storage.apply_writeset"), calls("storage.apply_writeset")
        ),
        "storage.versions_end": max(
            r["db_versions"] for r in episode.metrics["replicas"].values()
        ),
        "sql.parse_us_per_stmt": _ratio(cpu_us("sql.parse"), statements),
        "sql.exec_us_per_stmt": _ratio(self_us("sql.execute"), statements),
        "durable.fsyncs_per_update": _ratio(hooks.delta("fsyncs"), updates),
        "durable.flush_ms_per_call": _ratio(
            stats["durable.commit_flush"].wall_ns / 1e6,
            calls("durable.commit_flush"),
        ),
        "durable.bytes_per_update": _ratio(hooks.delta("log_bytes"), updates),
        "durable.records_per_flush": _ratio(
            hooks.delta("log_records"), hooks.delta("log_flushes")
        ),
        "sim.sched_calls_per_txn": _ratio(sched_calls, txns),
        "sim.host_us_per_sched_call": 0.0,
        "sim.virtual_update_tps": 0.0,
        "sim.virtual_update_p95_ms": 0.0,
        "sim.virtual_abort_rate": 0.0,
    }
    if runtime == "sim":
        out["sim.virtual_update_tps"] = _ratio(updates, episode.clock_s)
        out["sim.virtual_update_p95_ms"] = out["client.update_p95_ms"]
        out["sim.virtual_abort_rate"] = _ratio(
            episode.failed, episode.failed + episode.commits
        )
    # shares: self CPU by layer over the measured phase's CPU; what no
    # layer shim covers (scheduler, asyncio, simulated LAN, harness) is
    # "other", so the rows sum to 1 by construction
    episode_cpu_ns = episode.measured.cpu_s * 1e9
    by_layer: dict[str, int] = defaultdict(int)
    for name, stat in stats.items():
        by_layer[name.split(".", 1)[0]] += stat.self_cpu_ns
    covered = 0.0
    for layer in LAYERS:
        share = _ratio(by_layer[layer], episode_cpu_ns)
        out[f"share.{layer}"] = share
        covered += share
    out["share.other"] = 1.0 - covered
    # the scheduler's cost is what no layer shim covers (heap or asyncio
    # loop, process stepping) plus the Runtime API calls themselves
    out["sim.host_us_per_sched_call"] = _ratio(
        out["share.other"] * episode_cpu_ns / 1000.0, sched_calls
    )
    return out


def loopback_rtt_us(round_trips: int = 2000) -> float:
    """Median request/response time over one ``TcpNetwork.connect``
    channel: the floor under every client statement on ``wall-*``."""
    from repro.net.network import ChannelClosed
    from repro.runtime import AsyncioRuntime, TcpNetwork

    runtime = AsyncioRuntime(seed=0)
    samples: list[float] = []
    try:
        network = TcpNetwork(runtime)
        server = network.register("rtt-server")
        client = network.register("rtt-client")

        def echo():
            end = yield server.accept()
            try:
                while True:
                    end.send((yield from end.recv()))
            except ChannelClosed:
                return

        def ping():
            end = network.connect(client, "rtt-server").client_end
            for i in range(round_trips + 100):
                t0 = _perf()
                end.send(i)
                yield from end.recv()
                if i >= 100:  # socket establishment and warm caches first
                    samples.append((_perf() - t0) / 1000.0)

        runtime.spawn(echo(), name="rtt-echo", daemon=True)
        runtime.run_process(ping(), name="rtt-ping")
    finally:
        runtime.stop()
    return statistics.median(samples)


def write_trace(path: Path, workload: str, tracer: Tracer, metrics: dict) -> None:
    """``trace-<workload>.json``: span aggregates, the first
    ``SPAN_LIMIT`` span records, and the metrics derived from them."""
    document = {
        "workload": workload,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "self_cpu_ns"],
        "spans": tracer.spans,
        "spans_not_recorded": max(0, tracer._next_id - SPAN_LIMIT),
        "aggregate": {
            name: {
                "calls": stat.calls,
                "self_cpu_us": stat.self_cpu_ns / 1000.0,
                "cpu_us": stat.cpu_ns / 1000.0,
                "wall_us": stat.wall_ns / 1000.0,
            }
            for name, stat in sorted(tracer.stats.items())
        },
        "counters": dict(tracer.counters),
        "metrics": metrics,
    }
    path.write_text(json.dumps(document, allow_nan=False))
