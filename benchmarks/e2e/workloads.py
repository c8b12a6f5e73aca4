"""The four benchmark workloads and how one episode of each is driven.

An *episode* is one fresh cluster doing a fixed amount of work: build,
load, connect, warm up (all of that is ``setup_s``), then the measured
phase, then — off the clock — drain, correctness checks and teardown.
Everything goes through the system's public entry points
(``SIRepCluster``/``ClusterConfig``, ``Workload.install``,
``Driver.connect`` -> ``Connection.execute/commit``, ``ClientPool``,
``cluster.metrics()``, ``Database.export_committed()``).

Why fixed work and not fixed time: see README.md ("Measurement design").
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.bench.costs import BatchMicroCost, MicroCost
from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable.store import DurabilityConfig
from repro.errors import DatabaseError, TransactionAborted
from repro.gcs import GcsConfig
from repro.workloads import ClientPool, TxnTemplate, Workload, micro, tpcw

#: closed-loop clients on the wall workloads and their sim twin: nproc
#: is 2 and the whole cluster shares one thread with the clients, so
#: more connections only queue
N_CLIENTS = 2
#: transactions per client before the measured phase (fills
#: ``parse_cached``, opens sessions, touches every table)
WARMUP_TXNS = 50
#: rows per table of the update workload: 10x the §6.3 table, so two
#: clients almost never pick the same row
UPDATE_ROWS = 2000

# sim-contention: the 800-tps point of benchmarks/bench_batching.py
# (config copied, not imported — the benchmark must not change when
# that file does)
CONTENTION_REPLICAS = 5
CONTENTION_OFFERED_TPS = 800.0
CONTENTION_READ_WEIGHT = 0.3
#: what run_sirep's ``_n_clients(800.0)`` gives: max(8, 800 * 0.5 + 4)
CONTENTION_CLIENTS = 404
#: virtual seconds of ramp-up before the measured phase
CONTENTION_WARMUP = 0.75


def make_update_workload() -> Workload:
    """§6.3 update-only micro workload (10 single-row updates in 3 of
    10 tables per transaction) on ``UPDATE_ROWS`` rows per table."""

    def params(rng):
        tables = rng.sample(range(micro.N_TABLES), micro.TABLES_PER_TXN)
        picks: list[tuple] = []
        seen: set[tuple] = set()
        while len(picks) < micro.UPDATES_PER_TXN:
            pick = (rng.choice(tables), rng.randint(1, UPDATE_ROWS))
            if pick not in seen:
                seen.add(pick)
                picks.append(pick + (rng.randint(0, 10_000),))
        return (tuple(sorted(tables)), tuple(picks))

    template = TxnTemplate(
        "micro_update",
        micro.MICRO_UPDATE.tables,
        params,
        micro.MICRO_UPDATE.statements,
    )
    tables = {
        micro.table_name(i): [{"k": k, "v": 0} for k in range(1, UPDATE_ROWS + 1)]
        for i in range(micro.N_TABLES)
    }
    return Workload("e2e-update", list(micro.DDL), tables, [(template, 1.0)])


def _wall_config(seed: int, log_dir: Optional[str]) -> ClusterConfig:
    # flush policy: a log_dir on the wall runtime forces os.fsync on
    # every group flush (the cluster turns it on itself)
    return ClusterConfig(
        n_replicas=3,
        seed=seed,
        runtime="wall",
        durability=DurabilityConfig(log_dir=log_dir),
    )


def _sim_update_config(seed: int, _log_dir: Optional[str]) -> ClusterConfig:
    return ClusterConfig(
        n_replicas=3, seed=seed, runtime="sim", cost_model=lambda _i: MicroCost()
    )


def _contention_config(seed: int, _log_dir: Optional[str]) -> ClusterConfig:
    return ClusterConfig(
        n_replicas=CONTENTION_REPLICAS,
        seed=seed,
        runtime="sim",
        cost_model=lambda _i: BatchMicroCost(),
        with_disk=True,
        group_commit=True,
        cpu_servers=2,
        salvage=True,
        gcs=GcsConfig(
            batch_max_messages=8,
            batch_window=0.005,
            bus_service_time=0.005,
            reorder=True,
            adaptive_window=True,
            batch_window_min=0.005,
            batch_window_max=0.015,
        ),
    )


@dataclass(frozen=True)
class Spec:
    """One workload: what to build and how much work an episode does."""

    name: str
    runtime: str
    #: R, the identical episodes of one run
    episodes: int
    #: closed loop: measured transactions per client per host second
    #: here; pool: virtual seconds per host second.  Only sizes an
    #: episode from ``--seconds`` — it is a constant of the benchmark,
    #: not something a run measures.
    rate: float
    make_workload: Callable[[], Workload]
    make_config: Callable[[int, Optional[str]], ClusterConfig]
    #: work between two cuts of the meter (~50 ms of host time here):
    #: transactions, or (pool) virtual seconds
    chunk: float
    #: think-time ClientPool over a fixed virtual duration (which on the
    #: simulator is fixed work) instead of fixed-count closed loops
    pool: bool = False
    #: largest episode of a ``--trace 1`` run: the traced episode ends
    #: with ``one_copy_report()``, whose cost grows about cubically with
    #: the history (60 s for 2200 commits from 404 concurrent clients)
    traced_work_cap: float = float("inf")

    def work(self, seconds: float, smoke: bool, trace: bool) -> float:
        """Size of one episode: transactions per client, or (pool)
        virtual seconds of measured phase."""
        cap = self.traced_work_cap if trace else float("inf")
        if self.pool:
            return 0.3 if smoke else min(cap, max(0.3, seconds / self.episodes * self.rate))
        return 20 if smoke else min(cap, max(20, round(seconds / self.episodes * self.rate)))


#: why each workload exists is recorded once, in BENCHMARK.json
WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("wall-update", "wall", 6, 130.0, make_update_workload, _wall_config, 12),
        Spec("wall-tpcw", "wall", 6, 260.0, tpcw.make_workload, _wall_config, 25),
        Spec(
            "sim-update", "sim", 8, 500.0, make_update_workload, _sim_update_config, 50
        ),
        Spec(
            "sim-contention", "sim", 6, 1.1,
            lambda: micro.make_mixed_workload(read_weight=CONTENTION_READ_WEIGHT),
            _contention_config, 0.05, pool=True, traced_work_cap=0.6,
        ),
    )
}


class BenchmarkCheckFailed(Exception):
    """A correctness or hygiene check did not hold; no metrics are valid."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkCheckFailed(message)


#: what the two reference probes take at reference speed: this host in
#: its fast state
REFERENCE_CPU_S = 0.0007
REFERENCE_FSYNC_S = 0.0003
_KERNEL_DATA = {i: (i, str(i)) for i in range(300)}


def _kernel() -> int:
    total = 0
    for _ in range(12):
        for key, value in pickle.loads(pickle.dumps(_KERNEL_DATA)).items():
            total += key + len(value[1])
    return total


def reference_kernel() -> float:
    """CPU seconds of a fixed piece of interpreter work — stdlib pickle
    round trips and a dict walk, nothing from ``src/``.  How long it
    takes *now* says how fast this host's CPU is *now*.  It runs twice
    and the second run is timed: the first, on caches the workload has
    just filled, tracks the workload's own slowdown much worse
    (REPEATABILITY.md, "Designs compared on the same runs")."""
    _kernel()
    started = time.process_time()
    _kernel()
    return time.process_time() - started


def reference_fsync(path: Path) -> float:
    """Seconds the process is blocked in one small fsync'd append: how
    slow this host's disk is *now*."""
    started = time.perf_counter()
    cpu = time.process_time()
    with open(path, "a") as fh:
        fh.write("x" * 512 + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return max(1e-6, (time.perf_counter() - started) - (time.process_time() - cpu))


class Meter:
    """Host time of one phase, cut into segments of a few tens of ms
    with the reference probes run at every cut, off the clock.

    ``reference()`` re-states each segment at reference speed: its CPU
    time is divided by how much slower than ``REFERENCE_CPU_S`` the
    kernel ran next to it; the rest of its wall time — the process
    waiting, for fsync above all — is divided by how much slower than
    ``REFERENCE_FSYNC_S`` the fsync probe ran.  Without ``probe_file``
    (the simulator: no disk, no sockets) the waits stay as measured."""

    def __init__(self, probe_file: Optional[Path] = None) -> None:
        self.probe_file = probe_file
        self.kernel: list[float] = []
        self.fsync: list[float] = []
        #: (wall, CPU) seconds per segment
        self.segments: list[tuple[float, float]] = []
        self._probe()

    def _probe(self) -> None:
        self.kernel.append(reference_kernel())
        if self.probe_file is not None:
            self.fsync.append(reference_fsync(self.probe_file))
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def cut(self) -> None:
        wall = time.perf_counter()
        cpu = time.process_time()
        self.segments.append((wall - self._wall, cpu - self._cpu))
        self._probe()

    def reference(self) -> list[tuple[float, float]]:
        """(wall, CPU) per segment at reference speed."""
        # one disk factor per phase: a single fsync is too noisy a
        # sample to scale 50 ms by (its p90 is 10x its p10 here)
        disk = statistics.median(self.fsync) / REFERENCE_FSYNC_S if self.fsync else 1.0
        out = []
        for index, (wall, cpu) in enumerate(self.segments):
            slowdown = (
                (self.kernel[index] + self.kernel[index + 1]) / 2 / REFERENCE_CPU_S
            )
            cpu_ref = cpu / slowdown
            out.append((cpu_ref + max(0.0, wall - cpu) / disk, cpu_ref))
        return out

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _cpu in self.segments)

    @property
    def cpu_s(self) -> float:
        return sum(cpu for _wall, cpu in self.segments)

    @property
    def wall_ref_s(self) -> float:
        return sum(wall for wall, _cpu in self.reference())

    @property
    def cpu_ref_s(self) -> float:
        return sum(cpu for _wall, cpu in self.reference())


@dataclass
class Episode:
    """Everything one episode measured."""

    setup: Optional[Meter] = None
    measured: Optional[Meter] = None
    #: measured phase in the workload's own clock (virtual on sim-*)
    clock_s: float = 0.0
    #: client-observed latencies of committed transactions, measured
    #: phase only, in the workload's own clock
    update_lat: list = field(default_factory=list)
    read_lat: list = field(default_factory=list)
    #: len(update_lat) at every cut of ``measured``
    update_cuts: list = field(default_factory=list)
    aborts: int = 0
    errors: int = 0
    #: whole-episode client-side totals, for the replica cross-check
    seen_updates: int = 0
    seen_reads: int = 0
    #: cluster.metrics() after the drain
    metrics: dict = field(default_factory=dict)

    @property
    def update_commits(self) -> int:
        return len(self.update_lat)

    @property
    def commits(self) -> int:
        return len(self.update_lat) + len(self.read_lat)

    @property
    def failed(self) -> int:
        return self.aborts + self.errors

    def update_lat_ref(self) -> list:
        """Update latencies with each one scaled like the segment it
        committed in (real-time workloads only; virtual latencies do
        not depend on the host)."""
        out = []
        cuts = [0] + self.update_cuts
        segments = zip(self.measured.segments, self.measured.reference())
        for index, ((wall, _), (wall_ref, _)) in enumerate(segments):
            scale = wall_ref / wall if wall else 1.0
            out += [lat * scale for lat in self.update_lat[cuts[index]:cuts[index + 1]]]
        return out

    def tps_last_over_first(self) -> float:
        """Last-quarter / first-quarter throughput inside the measured
        phase (segments are equal work, so it is a ratio of times):
        below 1 when growing tables slow the episode down."""
        walls = [wall for wall, _cpu in self.measured.reference()]
        quarter = max(1, len(walls) // 4)
        return sum(walls[:quarter]) / sum(walls[-quarter:])

    def fingerprint(self) -> tuple:
        """What must repeat exactly across same-seed sim episodes."""
        return (
            len(self.update_lat), len(self.read_lat), self.aborts, self.errors,
            tuple(self.update_lat), tuple(self.read_lat),
        )


class _Phase:
    """Opens and closes the measured phase; hooks let a traced episode
    arm its shims and snapshot counters exactly at the boundaries."""

    def __init__(self, episode: Episode, cluster, hooks):
        self.episode = episode
        self.cluster = cluster
        self.hooks = hooks
        self._clock0 = 0.0
        #: seconds of the workload's own clock the measured phase has
        #: spent in the meter's probes so far (none on the simulator)
        self.paused = 0.0

    def start(self) -> None:
        episode = self.episode
        if episode.measured is not None:
            return
        if self.hooks is not None:
            self.hooks.measure_start(self.cluster)
        episode.setup.cut()
        # Garbage collection policy of the measured phase (README.md,
        # "Garbage collection"): what set-up built — the loaded tables
        # above all — is moved out of the collector's sight, so a full
        # collection costs what the phase's own garbage costs and not
        # 70-150 ms per scan of the database.  run_episode() undoes it.
        gc.collect()
        gc.freeze()
        gc.collect()  # forgets the size of the heap just frozen
        self._clock0 = self.cluster.sim.now
        episode.measured = Meter(episode.setup.probe_file)

    def cut(self) -> None:
        before = self.cluster.sim.now
        self.episode.measured.cut()
        self.paused += self.cluster.sim.now - before
        self.episode.update_cuts.append(len(self.episode.update_lat))

    def end(self) -> None:
        self.episode.clock_s = self.cluster.sim.now - self._clock0
        if self.hooks is not None:
            self.hooks.measure_end(self.cluster)


def exact_mix(workload: Workload, rng, count: int) -> list:
    """``count`` templates in the workload's mix *exactly* (largest
    remainders), in an order drawn from ``rng``.  Drawing each
    transaction's template independently made the update share of 866
    TPC-W transactions 0.46-0.52 from seed to seed, and
    ``cpu_ms_per_txn`` with it."""
    total = sum(weight for _template, weight in workload.mix)
    quotas = [count * weight / total for _template, weight in workload.mix]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(len(quotas)), key=lambda i: quotas[i] - counts[i], reverse=True
    )
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    templates = [
        template
        for (template, _weight), n in zip(workload.mix, counts)
        for _ in range(n)
    ]
    rng.shuffle(templates)
    return templates


class _DealtMix(Workload):
    """The same workload with ``choose()`` dealing from shuffled decks of
    100 templates that hold the mix exactly: the pool draws a template
    per transaction from one shared stream."""

    #: the templates not dealt yet
    _deck = ()

    def choose(self, rng):
        if not self._deck:
            self._deck = exact_mix(self, rng, 100)
        return self._deck.pop()


class ClosedLoopClients:
    """``N_CLIENTS`` zero-think connections, each running a fixed number
    of transactions drawn from its own seeded stream."""

    def __init__(self, cluster, workload: Workload, n_txns: int, phase: _Phase, chunk):
        self.cluster = cluster
        self.sim = cluster.sim
        self.workload = workload
        self.n_txns = n_txns
        self.phase = phase
        self.chunk = chunk
        self.episode = phase.episode
        self.driver = Driver(cluster.network, cluster.discovery)
        self._warming = N_CLIENTS * WARMUP_TXNS
        self._left = N_CLIENTS * n_txns

    def run(self) -> None:
        def main():
            clients = [
                self.sim.spawn(self._client(i), name=f"bench-client-{i}")
                for i in range(N_CLIENTS)
            ]
            for client in clients:
                yield client.join()

        self.sim.run_process(main(), name="bench-main")

    def _client(self, index: int):
        rng = self.sim.rng(f"bench-client-{index}")
        # client i talks to replica i: left to discovery's shuffle, some
        # seeds put both clients on one replica, which is another workload
        replica = self.cluster.replicas[index % len(self.cluster.replicas)]
        connection = yield from self.driver.connect(
            self.cluster.new_client_host(), address=replica.name
        )
        for _ in range(WARMUP_TXNS):
            yield from self.transaction(
                connection, rng, self.workload.choose(rng), measured=False
            )
            self._warming -= 1
            # not once the other client has opened the measured phase
            if (
                self._warming
                and self._warming % self.chunk == 0
                and self.episode.measured is None
            ):
                self.episode.setup.cut()
        self.phase.start()
        for template in exact_mix(self.workload, rng, self.n_txns):
            yield from self.transaction(connection, rng, template, measured=True)
            self._left -= 1
            if self._left % self.chunk == 0:
                self.phase.cut()
        if not self._left:
            self.phase.end()
        connection.close()

    def transaction(self, connection, rng, template: TxnTemplate, measured: bool):
        episode = self.episode
        params = template.make_params(rng)
        began = self.sim.now
        paused = self.phase.paused
        try:
            for sql, sql_params in template.statements(params):
                yield from connection.execute(
                    sql, sql_params, readonly=template.readonly
                )
            yield from connection.commit()
        except TransactionAborted:
            episode.aborts += measured
            return
        except DatabaseError:
            episode.errors += measured
            return
        if template.readonly:
            episode.seen_reads += 1
        else:
            episode.seen_updates += 1
        if measured:
            # both clients share one thread: a probe run at the other
            # client's cut stalls this transaction too
            latency = self.sim.now - began - (self.phase.paused - paused)
            (episode.read_lat if template.readonly else episode.update_lat).append(
                latency
            )


class ThinkTimePool:
    """The closed-loop think-time pool ``run_sirep`` builds, run in legs
    of ``chunk`` virtual seconds: stopping the kernel at a horizon and
    resuming changes no event, and every stop is a cut of the meter."""

    def __init__(self, cluster, workload: Workload, measured: float, phase: _Phase, chunk):
        self.cluster = cluster
        self.phase = phase
        self.episode = phase.episode
        self.legs = max(1, round(measured / chunk))
        self.measured = measured
        # a fresh deck per episode: same-seed episodes must be identical
        dealt = _DealtMix(workload.name, workload.ddl, workload.tables, workload.mix)
        self.pool = ClientPool(
            cluster, dealt, CONTENTION_CLIENTS, CONTENTION_OFFERED_TPS,
            CONTENTION_WARMUP + measured, warmup=0.0,
        )

    def _counts(self) -> dict:
        return {
            name: (len(c.latencies), c.aborts)
            for name, c in self.pool.stats.categories.items()
        }

    def run(self) -> None:
        sim = self.cluster.sim
        episode = self.episode
        self.pool.start()
        warm_legs = round(CONTENTION_WARMUP / (self.measured / self.legs))
        for leg in range(1, warm_legs):
            sim.run(until=CONTENTION_WARMUP * leg / warm_legs)
            episode.setup.cut()
        sim.run(until=CONTENTION_WARMUP)
        before = self._counts()
        self.phase.start()
        for leg in range(1, self.legs + 1):
            sim.run(until=CONTENTION_WARMUP + self.measured * leg / self.legs)
            self.phase.cut()
        self.phase.end()
        after = self._counts()
        for name, category in self.pool.stats.categories.items():
            lo, aborts_lo = before.get(name, (0, 0))
            hi, aborts_hi = after[name]
            target = episode.read_lat if name == "read-only" else episode.update_lat
            target.extend(category.latencies[lo:hi])
            episode.aborts += aborts_hi - aborts_lo

    def finish(self) -> None:
        """After the drain every client has left its loop: totals are final."""
        categories = self.pool.stats.categories
        self.episode.seen_updates = categories["update"].commits
        self.episode.seen_reads = (
            categories["read-only"].commits if "read-only" in categories else 0
        )


# ------------------------------------------------------------------ checks


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


def listening_sockets() -> int:
    """LISTEN-state TCP sockets owned by this process."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listdir handle itself
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    count = 0
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table) as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:
                count += 1
    return count


def _applied_updates(replica_metrics: dict) -> int:
    return replica_metrics["db_commits"] - replica_metrics["readonly_commits"]


def drain(cluster) -> dict:
    """Run to quiescence — every client has its reply and every replica
    has applied what was certified — and return ``cluster.metrics()``."""
    cluster.sim.run()
    metrics = cluster.metrics()
    replicas = metrics["replicas"].values()
    certified = sum(r["update_commits"] for r in replicas)
    for name, replica in metrics["replicas"].items():
        check(
            _applied_updates(replica) == certified
            and replica["tocommit_queue_len"] == 0,
            f"{name} has not applied all {certified} certified writesets",
        )
    return metrics


def _canonical(state: dict) -> dict:
    return {
        table: frozenset(tuple(sorted(row.items())) for row in rows)
        for table, rows in state.items()
    }


def check_episode(cluster, episode: Episode) -> None:
    """Off-the-clock correctness checks every episode must pass."""
    replicas = episode.metrics["replicas"]
    reference = _canonical(cluster.replicas[0].node.db.export_committed())
    for replica in cluster.replicas[1:]:
        check(
            _canonical(replica.node.db.export_committed()) == reference,
            f"{replica.name} diverged from {cluster.replicas[0].name}",
        )
    reported_updates = sum(r["update_commits"] for r in replicas.values())
    reported_reads = sum(r["readonly_commits"] for r in replicas.values())
    check(
        reported_updates == episode.seen_updates,
        f"replicas report {reported_updates} update commits, "
        f"clients saw {episode.seen_updates}",
    )
    check(
        reported_reads == episode.seen_reads,
        f"replicas report {reported_reads} read-only commits, "
        f"clients saw {episode.seen_reads}",
    )
    check(episode.update_commits > 0, "no update transaction committed")


def run_episode(
    spec: Spec, workload: Workload, seed: int, work: float, scratch: Path,
    hooks=None,
) -> Episode:
    """One episode of ``spec``.  ``hooks`` (a traced episode's
    ``trace.Hooks``) sees the cluster at the measured-phase boundaries
    and once more, drained, before teardown."""
    fds_before = open_fds()
    listening_before = listening_sockets()
    log_dir = (
        tempfile.mkdtemp(prefix="log-", dir=scratch) if spec.runtime == "wall" else None
    )
    episode = Episode(
        setup=Meter(Path(log_dir, "fsync-probe") if log_dir is not None else None)
    )
    cluster = None
    try:
        cluster = SIRepCluster(spec.make_config(seed, log_dir))
        episode.setup.cut()
        workload.install(cluster)
        episode.setup.cut()
        phase = _Phase(episode, cluster, hooks)
        load_class = ThinkTimePool if spec.pool else ClosedLoopClients
        load = load_class(cluster, workload, work, phase, spec.chunk)
        load.run()
        episode.metrics = drain(cluster)
        if spec.pool:
            load.finish()
        check_episode(cluster, episode)
        if hooks is not None:
            hooks.drained(cluster)
    finally:
        gc.unfreeze()
        if cluster is not None:
            cluster.stop()
        if log_dir is not None:
            shutil.rmtree(log_dir)
    # hygiene: episode k+1 must not pay for what episode k left behind
    leaked = open_fds() - fds_before
    check(not leaked, f"episode leaked file descriptors {sorted(leaked)}")
    check(
        listening_sockets() == listening_before,
        "episode left listening sockets behind",
    )
    return episode
