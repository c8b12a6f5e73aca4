"""Causal transaction tracing: sim-time span trees over the protocol.

One update transaction's life crosses every layer of the system — local
execution at its home replica, the GCS sequencer, certification and the
to-commit queue at *every* replica, the hole wait of adjustment 3 — and
the §4/§6 analyses keep asking where that life is spent.  A
:class:`Tracer` answers per transaction: each protocol step opens a
:class:`Span` (named interval on the runtime's clock — simulated
seconds under the Simulator, elapsed seconds under the wall runtime;
exports carry a ``clock`` tag so the two are never conflated), spans
reference their parent within one replica and *link*
to their causal origin across replicas, and the whole set exports as
JSONL or Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``.

Conventions
-----------
* ``trace_id`` is the transaction's gid for protocol spans (so in-doubt
  inquiry traffic, which already carries the gid, needs no extra
  plumbing), or a router-generated id for cross-shard spans.
* ``parent_id`` expresses strict containment *on one replica*: a child
  span always nests inside its parent's interval
  (:meth:`Tracer.nesting_violations` checks this).
* ``link`` expresses causality *across* replicas (the OpenTelemetry
  span-link idiom): a remote delivery span links to the home replica's
  GCS span but is not contained in it — the remote apply legitimately
  outlives the home commit.
* Span ids come from a deterministic per-tracer counter and timestamps
  from ``sim.now``: tracing draws no randomness, never yields, and
  notifies no gates, so enabling it cannot change what a run does.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import IO, Optional, Union

from repro.obs.metrics import sanitize

#: tolerance for nesting checks (exact sim arithmetic, but be safe)
_EPS = 1e-9


@dataclass(frozen=True)
class TraceContext:
    """The trace coordinates carried on a protocol message.

    ``span_id`` is the sender-side span the receiver should link to (or
    parent under, for same-replica continuations); ``root_id`` is the
    transaction's root span so home-replica continuations that outlive
    the sending span (commit queue, commit) can parent correctly.
    """

    trace_id: str
    span_id: int
    root_id: Optional[int] = None


class Span:
    """One named interval of one trace on one replica."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "link",
        "start",
        "end",
        "replica",
        "status",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        link: Optional[int],
        start: float,
        replica: str,
        attrs: dict,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.link = link
        self.start = start
        self.end: Optional[float] = None
        self.replica = replica
        self.status = "open"
        self.attrs = attrs

    @property
    def open(self) -> bool:
        return self.end is None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "link": self.link,
            "start": self.start,
            "end": self.end,
            "replica": self.replica,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        interval = f"{self.start:.6f}..{'open' if self.open else f'{self.end:.6f}'}"
        return f"<Span {self.name} {self.trace_id} [{interval}] @{self.replica}>"


class Tracer:
    """Collects spans; bounded retention of finished ones."""

    #: finished spans kept, oldest dropped first
    max_spans = 100_000

    def __init__(self, sim):
        self.sim = sim
        #: which clock the timestamps come from ("sim" or "wall") —
        #: exported with every span so wall traces are never mistaken
        #: for deterministic sim traces
        self.clock = getattr(sim, "clock", "sim")
        #: finished spans in finish order (oldest fall off first)
        self._finished: deque[Span] = deque(maxlen=self.max_spans)
        #: span_id -> still-open span
        self._open: dict[int, Span] = {}
        self._ids = 0
        self.started = 0
        self.finished_count = 0

    # -- recording ---------------------------------------------------------------

    def start(
        self,
        name: str,
        trace_id: str,
        parent: Optional[int] = None,
        link: Optional[int] = None,
        replica: str = "",
        start: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Open a span; ``start`` backdates it (defaults to ``sim.now``)."""
        self._ids += 1
        self.started += 1
        span = Span(
            name,
            trace_id,
            self._ids,
            parent,
            link,
            self.sim.now if start is None else start,
            replica,
            attrs,
        )
        self._open[span.span_id] = span
        return span

    def finish(
        self, span: Span, status: str = "ok", at: Optional[float] = None, **attrs
    ) -> Span:
        """Close a span (idempotent: a second finish is a no-op)."""
        if span.end is not None:
            return span
        span.end = self.sim.now if at is None else at
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self._finished.append(span)
        self.finished_count += 1
        return span

    def record(
        self,
        name: str,
        trace_id: str,
        start: float,
        end: Optional[float] = None,
        parent: Optional[int] = None,
        link: Optional[int] = None,
        replica: str = "",
        status: str = "ok",
        **attrs,
    ) -> Span:
        """One already-completed interval (retroactive span)."""
        span = self.start(
            name, trace_id, parent=parent, link=link, replica=replica,
            start=start, **attrs,
        )
        return self.finish(span, status=status, at=self.sim.now if end is None else end)

    def close_open(
        self, replica: Optional[str] = None, status: str = "crashed"
    ) -> list[Span]:
        """Close every open span (of one replica, if given) — crash path."""
        closed = []
        for span in list(self._open.values()):
            if replica is not None and span.replica != replica:
                continue
            closed.append(self.finish(span, status=status))
        return closed

    # -- introspection -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans, oldest first."""
        return list(self._finished)

    def open_spans(self) -> list[Span]:
        return list(self._open.values())

    def trace(self, trace_id: str) -> list[Span]:
        """Every retained span (finished + open) of one trace, by start."""
        found = [s for s in self._finished if s.trace_id == trace_id]
        found += [s for s in self._open.values() if s.trace_id == trace_id]
        return sorted(found, key=lambda s: (s.start, s.span_id))

    def nesting_violations(self) -> list[tuple[Span, Span]]:
        """(parent, child) pairs where the child escapes the parent.

        Only *parent* relationships are containment claims; ``link``
        edges are causal references across replicas and intentionally
        cross interval boundaries.
        """
        by_id = {span.span_id: span for span in self._finished}
        bad = []
        for child in self._finished:
            if child.parent_id is None:
                continue
            parent = by_id.get(child.parent_id)
            if parent is None:
                continue  # parent aged out of the bounded ring
            if child.start < parent.start - _EPS or (
                parent.end is not None
                and child.end is not None
                and child.end > parent.end + _EPS
            ):
                bad.append((parent, child))
        return bad

    # -- export ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Finished spans as JSONL, one strict-JSON object per line."""
        return "\n".join(
            json.dumps(sanitize({**span.to_dict(), "clock": self.clock}),
                       allow_nan=False)
            for span in self._finished
        )

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (Perfetto-loadable).

        Replicas map to processes, traces to threads within a process;
        spans are complete events ("ph": "X") with microsecond
        timestamps (the trace-event unit; sim seconds * 1e6).
        """
        pids: dict[str, int] = {}
        tids: dict[tuple[int, str], int] = {}
        events: list[dict] = []
        for span in self._finished:
            pid = pids.get(span.replica)
            if pid is None:
                pid = len(pids) + 1
                pids[span.replica] = pid
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": span.replica or "cluster"},
                    }
                )
            key = (pid, span.trace_id)
            tid = tids.get(key)
            if tid is None:
                tid = len([k for k in tids if k[0] == pid]) + 1
                tids[key] = tid
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": span.trace_id},
                    }
                )
            events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": ((span.end if span.end is not None else span.start)
                            - span.start) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": sanitize(
                        {
                            "trace_id": span.trace_id,
                            "span_id": span.span_id,
                            "parent_id": span.parent_id,
                            "link": span.link,
                            "status": span.status,
                            **span.attrs,
                        }
                    ),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"clock": self.clock},
        }

    def dump_chrome(self, target: Union[str, IO[str]]) -> int:
        """Write the Chrome trace JSON; returns the span event count."""
        payload = self.to_chrome()
        text = json.dumps(payload, allow_nan=False)
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as handle:
                handle.write(text)
        return sum(1 for e in payload["traceEvents"] if e.get("ph") == "X")
