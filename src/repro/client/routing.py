"""Read/write routing over the lazy read tier.

:class:`RoutedDriver` extends the plain SI-Rep driver with three things
the read-scaling tier needs:

* **Routing** — a transaction declared read-only (``execute(...,
  readonly=True)`` on its first statement) is served by a lazy read
  replica discovered under ``role="read"``; everything else takes the
  normal write path.  When no reader is willing (none configured, all
  crashed, or all beyond their staleness bound) reads fall back to the
  connection's full replica.
* **Session guarantees** — the driver tracks one monotone session token:
  the max of every replicated commit's certification csn and every read
  snapshot's csn.  The token rides on the first statement of each
  read-only transaction (``ExecuteReq.min_csn``), so a reader that lags
  the session simply *waits* until its watermark catches up before
  taking the snapshot: read-your-writes and monotonic reads hold across
  arbitrary replica choices.
* **Admission control** — per-target caps on in-flight read
  transactions (``ReaderConfig.max_read_inflight`` for readers,
  ``writer_read_inflight`` for the fallback path).  Offered load beyond
  a cap *queues* FIFO at the driver instead of piling onto the replica
  and turning into timeouts/aborts.

Failover mirrors the §5.4 case analysis, simplified because the tier is
read-only: a reader crashing before the first statement answered is
retried transparently on another target (case 1); mid-transaction it
raises :class:`~repro.errors.ConnectionLost` and the client restarts
(case 2); a commit racing the crash is treated as committed — a
read-only transaction has no writes whose outcome could be in doubt.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.client.driver import Connection, Driver, QueryResult
from repro.core import protocol
from repro.errors import ConnectionLost, NoReplicaAvailable
from repro.gcs import DiscoveryService
from repro.net import Network
from repro.net.network import ChannelClosed, Host
from repro.obs.trace import TraceContext
from repro.reader.config import ReaderConfig
from repro.sim.sync import OneShot


class ReadAdmission:
    """FIFO admission controller: queues excess read load, never aborts.

    One instance per :class:`RoutedDriver`, shared by all its
    connections, with an independent in-flight count and waiter queue
    per target address.  A releaser hands its slot directly to the
    oldest waiter, so the in-flight count never overshoots the cap and
    wake-up order is deterministic.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, int] = {}
        self._waiters: dict[str, deque] = {}
        self.stats_admitted = 0
        self.stats_queued = 0
        self.peak_queue_depth = 0

    def inflight(self, address: str) -> int:
        return self._inflight.get(address, 0)

    def queue_depth(self, address: Optional[str] = None) -> int:
        if address is not None:
            return len(self._waiters.get(address, ()))
        return sum(len(queue) for queue in self._waiters.values())

    def acquire(
        self, address: str, cap: Optional[int]
    ) -> Generator[Any, Any, None]:
        """Take one read slot at ``address``, blocking while ``cap`` is hit."""
        count = self._inflight.get(address, 0)
        if cap is None or count < cap:
            self._inflight[address] = count + 1
            self.stats_admitted += 1
            return
        slot = OneShot()
        queue = self._waiters.setdefault(address, deque())
        queue.append(slot)
        self.stats_queued += 1
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth())
        # the releasing transaction hands its slot over without touching
        # the count, so resuming here means we already hold it
        yield slot.wait()
        self.stats_admitted += 1

    def release(self, address: str) -> None:
        queue = self._waiters.get(address)
        if queue:
            queue.popleft().resolve()
        else:
            count = self._inflight.get(address, 0) - 1
            if count > 0:
                self._inflight[address] = count
            else:
                self._inflight.pop(address, None)

    def metrics(self) -> dict:
        return {
            "admitted": self.stats_admitted,
            "queued": self.stats_queued,
            "peak_queue_depth": self.peak_queue_depth,
            "queue_depth": self.queue_depth(),
            "inflight": dict(self._inflight),
        }


class RoutedDriver(Driver):
    """A driver that spreads read-only transactions over the read tier."""

    def __init__(
        self,
        network: Network,
        discovery: DiscoveryService,
        reader_config: Optional[ReaderConfig] = None,
        policy: str = "round-robin",
        discover_ttl: float = 0.25,
        connect_retries: int = 25,
        retry_delay: float = 0.2,
        tracer=None,
    ):
        super().__init__(
            network, discovery,
            connect_retries=connect_retries, retry_delay=retry_delay,
        )
        self.config = reader_config or ReaderConfig()
        self.policy = policy
        if self.policy not in ("round-robin", "least-loaded"):
            raise ValueError(f"unknown routing policy {self.policy!r}")
        self.discover_ttl = discover_ttl
        self.admission = ReadAdmission()
        #: optional repro.obs Tracer: each routed read-only transaction
        #: gets a "read_txn" root span with its admission-queue wait as a
        #: child, and the serving replica links its watermark wait in —
        #: the profiler's read-path phases (pure bookkeeping, no yields)
        self.tracer = tracer
        self._read_trace_ids = 0
        self._rr = 0
        self._reader_cache: Optional[tuple[float, tuple[str, ...]]] = None
        self.stats_reads_routed = 0
        self.stats_reads_fallback = 0

    def connect(
        self, host: Host, address: Optional[str] = None
    ) -> Generator[Any, Any, "RoutedConnection"]:
        connection = RoutedConnection(self, host, preferred=address)
        yield from connection._connect()
        return connection

    def readers(self) -> Generator[Any, Any, tuple[str, ...]]:
        """Willing read replicas, via discovery with a small cache.

        The cache amortizes the discovery round-trip over many read
        transactions; it is invalidated eagerly whenever a target turns
        out to be gone, so churn shows up as one failed connect, not a
        TTL of misrouting.
        """
        if self._reader_cache is not None:
            expires, addresses = self._reader_cache
            if self.network.sim.now < expires:
                return addresses
        addresses = tuple(sorted((yield from self.discovery.discover(role="read"))))
        self._reader_cache = (self.network.sim.now + self.discover_ttl, addresses)
        return addresses

    def invalidate_readers(self) -> None:
        self._reader_cache = None

    def choose_reader(self, addresses: tuple[str, ...]) -> str:
        if self.policy == "least-loaded":
            return min(addresses, key=lambda a: (self.admission.inflight(a), a))
        address = addresses[self._rr % len(addresses)]
        self._rr += 1
        return address

    def metrics(self) -> dict:
        return {
            "policy": self.policy,
            "reads_routed": self.stats_reads_routed,
            "reads_fallback": self.stats_reads_fallback,
            "admission": self.admission.metrics(),
        }


class RoutedConnection(Connection):
    """A connection whose read-only transactions ride the read tier.

    Write transactions (and reads inside them) behave exactly like the
    base :class:`~repro.client.driver.Connection`.  A transaction whose
    *first* statement carries ``readonly=True`` is routed: the driver
    picks a reader (or falls back to this connection's full replica),
    takes an admission slot, and serves the whole transaction over a
    per-target channel that is cached across transactions.
    """

    def __init__(self, driver: RoutedDriver, host: Host, preferred: Optional[str] = None):
        super().__init__(driver, host, preferred=preferred)
        self._read_channels: dict[str, Any] = {}
        self._read_address: Optional[str] = None
        self._read_txn_active = False
        self._read_gid: Optional[str] = None
        #: monotone session token: max certification csn this session has
        #: written or observed — demanded via ``min_csn`` on routed reads
        self._session_csn: Optional[int] = None
        #: open "read_txn" root span of the active routed transaction
        self._read_span = None
        self.read_failovers = 0

    # -- public surface -----------------------------------------------------------

    def execute(
        self, sql: str, params: tuple = (), readonly: bool = False
    ) -> Generator[Any, Any, QueryResult]:
        self._check_open()
        if self._read_txn_active:
            result = yield from self._execute_read_next(sql, params)
        elif not readonly or self._txn_active:
            # write path — also reads that joined an update transaction
            result = yield from super().execute(sql, params)
        else:
            result = yield from self._execute_read_first(sql, params)
        if self.autocommit and self._read_txn_active:
            yield from self.commit()
        return result

    def commit(self) -> Generator[Any, Any, None]:
        if self._read_txn_active:
            yield from self._commit_read()
            return
        yield from super().commit()
        if self._last_commit_csn is not None:
            self._merge_token(self._last_commit_csn)

    def rollback(self) -> Generator[Any, Any, None]:
        if self._read_txn_active:
            self._check_open()
            channel = self._read_channels.get(self._read_address)
            self._clear_read_txn(release=True)
            self._read_trace_finish(status="rolled-back")
            if channel is not None:
                try:
                    channel.client_end.send(protocol.RollbackReq(next(self._seqs)))
                    yield from channel.client_end.recv()
                except ChannelClosed:
                    self._drop_read_channel(self._read_address)
            return
        yield from super().rollback()

    def close(self) -> None:
        self._read_trace_finish(status="shutdown")
        for channel in self._read_channels.values():
            channel.close()
        self._read_channels.clear()
        super().close()

    @property
    def in_transaction(self) -> bool:
        return self._txn_active or self._read_txn_active

    @property
    def read_address(self) -> Optional[str]:
        """The replica serving the active (or last) read-only transaction."""
        return self._read_address

    @property
    def session_csn(self) -> Optional[int]:
        return self._session_csn

    # -- tracing --------------------------------------------------------------------

    def _read_trace_begin(self, start: float) -> None:
        """Open the routed transaction's "read_txn" root span."""
        tracer = self.driver.tracer
        if tracer is None or self._read_span is not None:
            return
        self.driver._read_trace_ids += 1
        self._read_span = tracer.start(
            "read_txn",
            f"read:{self.host.address}:{self.driver._read_trace_ids}",
            replica=self.host.address,
            start=start,
        )

    def _read_trace_wait(self, start: float, target: str) -> None:
        """Record the admission-queue wait that just ended (if any)."""
        tracer = self.driver.tracer
        if tracer is None or self._read_span is None:
            return
        now = self.driver.network.sim.now
        if now > start:
            tracer.record(
                "read_admission",
                self._read_span.trace_id,
                start=start,
                parent=self._read_span.span_id,
                replica=self.host.address,
                target=target,
            )

    def _read_trace_serve(self, name: str, start: float, target: str) -> None:
        """Record one statement/commit round trip against the root span."""
        tracer = self.driver.tracer
        if tracer is None or self._read_span is None:
            return
        tracer.record(
            name,
            self._read_span.trace_id,
            start=start,
            parent=self._read_span.span_id,
            replica=self.host.address,
            target=target,
        )

    def _read_trace_ctx(self) -> Optional[TraceContext]:
        if self._read_span is None:
            return None
        return TraceContext(
            self._read_span.trace_id,
            self._read_span.span_id,
            root_id=self._read_span.span_id,
        )

    def _read_trace_finish(self, status: str = "ok", **attrs) -> None:
        tracer = self.driver.tracer
        span, self._read_span = self._read_span, None
        if tracer is None or span is None:
            return
        tracer.finish(span, status=status, **attrs)

    # -- read-transaction machinery -----------------------------------------------

    def _merge_token(self, csn: Optional[int]) -> None:
        if csn is not None and (self._session_csn is None or csn > self._session_csn):
            self._session_csn = csn

    def _route(self) -> Generator[Any, Any, tuple[str, Optional[int], bool]]:
        """Pick a target for a new read transaction.

        Returns ``(address, admission_cap, is_reader)``; falls back to
        this connection's full replica when no reader is willing.
        """
        driver: RoutedDriver = self.driver
        addresses = yield from driver.readers()
        if addresses:
            return driver.choose_reader(addresses), driver.config.max_read_inflight, True
        if self._address is None:
            yield from self._connect()
        return self._address, driver.config.writer_read_inflight, False

    def _execute_read_first(
        self, sql: str, params: tuple
    ) -> Generator[Any, Any, QueryResult]:
        driver: RoutedDriver = self.driver
        sim = driver.network.sim
        self._read_trace_begin(sim.now)
        response = None
        for attempt in range(driver.connect_retries + 1):
            if attempt:
                yield sim.sleep(driver.retry_delay)
            target, cap, is_reader = yield from self._route()
            admission_start = sim.now
            yield from driver.admission.acquire(target, cap)
            self._read_trace_wait(admission_start, target)
            channel = self._read_channels.get(target)
            if channel is None:
                try:
                    channel = driver.network.connect(self.host, target)
                except ChannelClosed:
                    driver.admission.release(target)
                    yield from self._after_target_lost(target, is_reader)
                    continue
                self._read_channels[target] = channel
            request = protocol.ExecuteReq(
                next(self._seqs), sql, tuple(params),
                min_csn=self._session_csn, ctx=self._read_trace_ctx(),
            )
            serve_start = sim.now
            channel.client_end.send(request)
            try:
                response = yield from channel.client_end.recv()
            except ChannelClosed:
                # nothing observed yet: retry transparently elsewhere (case 1)
                driver.admission.release(target)
                self._drop_read_channel(target)
                yield from self._after_target_lost(target, is_reader)
                continue
            self._read_trace_serve("read_serve", serve_start, target)
            break
        if response is None:
            self._read_trace_finish(status="lost")
            raise NoReplicaAvailable("no replica answered the read route")
        self._read_address = target
        self._read_txn_active = True
        if is_reader:
            driver.stats_reads_routed += 1
        else:
            driver.stats_reads_fallback += 1
        return self._finish_read_statement(response, target=target, routed=is_reader)

    def _execute_read_next(
        self, sql: str, params: tuple
    ) -> Generator[Any, Any, QueryResult]:
        channel = self._read_channels[self._read_address]
        request = protocol.ExecuteReq(next(self._seqs), sql, tuple(params))
        serve_start = self.driver.network.sim.now
        channel.client_end.send(request)
        try:
            response = yield from channel.client_end.recv()
            self._read_trace_serve(
                "read_serve", serve_start, self._read_address
            )
        except ChannelClosed:
            # case 2: the snapshot died with the reader — restart the txn
            crashed = self._read_address
            self._drop_read_channel(crashed)
            self._clear_read_txn(release=True)
            self.read_failovers += 1
            self.driver.invalidate_readers()
            self._read_trace_finish(status="lost-session", target=crashed)
            raise ConnectionLost(
                f"read replica {crashed!r} crashed; transaction lost, "
                "restart it on the new connection"
            )
        return self._finish_read_statement(response)

    def _finish_read_statement(self, response, **span_attrs) -> QueryResult:
        if response.error is not None:
            self._clear_read_txn(release=True)
            self._read_trace_finish(status="aborted", **span_attrs)
            raise protocol.unmarshal_error(response.error)
        if self._read_span is not None and span_attrs:
            self._read_span.attrs.update(span_attrs)
        self._read_gid = response.gid
        self._read_txn_active = True
        if response.snapshot_csn is not None:
            self._snapshot_csn = response.snapshot_csn
            # the snapshot itself is an observation: later reads anywhere
            # must not travel back before it (monotonic reads)
            self._merge_token(response.snapshot_csn)
        return QueryResult(
            rows=response.rows, columns=response.columns, rowcount=response.rowcount
        )

    def _commit_read(self) -> Generator[Any, Any, None]:
        self._check_open()
        channel = self._read_channels.get(self._read_address)
        request = protocol.CommitReq(next(self._seqs))
        serve_start = self.driver.network.sim.now
        try:
            channel.client_end.send(request)
            response = yield from channel.client_end.recv()
            self._read_trace_serve(
                "read_commit", serve_start, self._read_address
            )
        except ChannelClosed:
            # a read-only commit has no writes whose outcome could be in
            # doubt: the reads already happened — treat as committed
            self._drop_read_channel(self._read_address)
            self._clear_read_txn(release=True)
            self.read_failovers += 1
            self.driver.invalidate_readers()
            self._read_trace_finish(status="ok", commit_race=True)
            return
        self._clear_read_txn(release=True)
        if response.error is not None:
            self._read_trace_finish(status="aborted")
            raise protocol.unmarshal_error(response.error)
        self._merge_token(response.csn)
        self._read_trace_finish(status="ok")

    def _clear_read_txn(self, release: bool) -> None:
        if release and self._read_address is not None and self._read_txn_active:
            self.driver.admission.release(self._read_address)
        self._read_txn_active = False
        self._read_gid = None

    def _drop_read_channel(self, address: Optional[str]) -> None:
        if address is not None:
            channel = self._read_channels.pop(address, None)
            if channel is not None:
                channel.close()

    def _after_target_lost(self, target: str, is_reader: bool) -> Generator[Any, Any, None]:
        """A routed target refused the connect: refresh our view of the
        world before the next attempt."""
        driver: RoutedDriver = self.driver
        if is_reader:
            driver.invalidate_readers()
        elif target == self._address:
            # the fallback full replica is gone — fail over like any write
            yield from self._reconnect()
