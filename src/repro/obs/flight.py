"""Crash flight recorder: the last moments of a run, dumped on failure.

A :class:`FlightRecorder` keeps nothing of its own while things go well —
it reads the bounded rings the tracer and event log already maintain.
When something goes wrong (a replica crash, a failed 1-copy-SI audit, a
monitor violation, an unhandled exception under :meth:`guard`), it
captures a **snapshot**: the most recent finished spans, every still-open
span (the transactions that were in flight), the event-log tail, and the
caller's context — and writes it to ``directory`` as strict JSON when one
is configured.

``python -m repro.obs.flight dump.json`` renders a post-mortem:
a per-replica timeline of the captured spans, the open (interrupted)
work, and the trailing protocol events.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
from typing import Optional

from repro.obs.metrics import sanitize

#: schema tag so future readers can detect old dumps
FORMAT_VERSION = 1


class FlightRecorder:
    """Bounded black box over a tracer and an event log."""

    #: finished spans and event-log rows one snapshot keeps, newest last
    max_spans = 2000
    max_events = 2000
    #: in-memory snapshots kept, oldest dropped first
    max_snapshots = 16

    def __init__(
        self,
        sim,
        tracer=None,
        events=None,
        directory: Optional[str] = None,
    ):
        self.sim = sim
        self.tracer = tracer
        self.events = events
        self.directory = directory
        #: in-memory snapshots, oldest dropped past ``max_snapshots``
        self.snapshots: list[dict] = []
        #: paths written when ``directory`` is configured
        self.dumped: list[str] = []

    # -- capture -----------------------------------------------------------------

    def snapshot(self, reason: str, **context) -> dict:
        """Capture the recorder's view of right now (and maybe dump it)."""
        snap = {
            "format": FORMAT_VERSION,
            "reason": reason,
            "t": self.sim.now,
            "context": sanitize(context),
            "spans": [],
            "open_spans": [],
            "events": [],
        }
        if self.tracer is not None:
            snap["spans"] = [
                sanitize(span.to_dict())
                for span in self.tracer.spans()[-self.max_spans :]
            ]
            snap["open_spans"] = [
                sanitize(span.to_dict()) for span in self.tracer.open_spans()
            ]
        if self.events is not None:
            snap["events"] = [
                sanitize(row) for row in self.events.tail(self.max_events)
            ]
        self.snapshots.append(snap)
        if len(self.snapshots) > self.max_snapshots:
            del self.snapshots[0]
        if self.directory is not None:
            self.dump(snap)
        return snap

    def dump(self, snap: dict, path: Optional[str] = None) -> str:
        """Write one snapshot as strict JSON; returns the path."""
        if path is None:
            os.makedirs(self.directory, exist_ok=True)
            reason = "".join(
                c if c.isalnum() or c in "-_" else "-" for c in snap["reason"]
            )
            path = os.path.join(
                self.directory, f"flight-{reason}-{snap['t']:.6f}.json"
            )
        with open(path, "w") as handle:
            json.dump(snap, handle, indent=2, allow_nan=False)
        self.dumped.append(path)
        return path

    @contextlib.contextmanager
    def guard(self, reason: str = "exception", **context):
        """Snapshot automatically if the guarded block raises."""
        try:
            yield self
        except BaseException as err:
            self.snapshot(reason, error=repr(err), **context)
            raise


# -- the post-mortem CLI ---------------------------------------------------------


def _format_span(span: dict) -> str:
    end = span.get("end")
    interval = (
        f"{span['start']:.6f}..{'open':>9}"
        if end is None
        else f"{span['start']:.6f}..{end:.6f}"
    )
    duration = "" if end is None else f" ({1000.0 * (end - span['start']):.2f} ms)"
    flag = "" if span.get("status") == "ok" else f" [{span.get('status')}]"
    return f"  {interval}{duration}  {span['name']}  {span['trace_id']}{flag}"


def render(snap: dict, tail: int = 20) -> str:
    """Human-readable post-mortem of one flight snapshot."""
    lines = [
        f"flight recorder snapshot — reason: {snap['reason']} "
        f"at t={snap['t']:.6f}",
    ]
    context = snap.get("context") or {}
    if context:
        lines.append(f"context: {json.dumps(context, sort_keys=True)}")
    spans = list(snap.get("spans", [])) + list(snap.get("open_spans", []))
    by_replica: dict[str, list[dict]] = {}
    for span in spans:
        by_replica.setdefault(span.get("replica") or "-", []).append(span)
    for replica in sorted(by_replica):
        rows = sorted(
            by_replica[replica],
            key=lambda s: (s["start"], s.get("span_id", 0)),
        )[-tail:]
        lines.append(f"replica {replica}: last {len(rows)} spans")
        lines.extend(_format_span(span) for span in rows)
    interrupted = snap.get("open_spans", [])
    lines.append(f"in flight at capture: {len(interrupted)} open span(s)")
    events = snap.get("events", [])[-tail:]
    if events:
        lines.append(f"last {len(events)} protocol events:")
        for row in events:
            fields = {
                k: v for k, v in row.items() if k not in ("t", "event")
            }
            lines.append(
                f"  t={row['t']:.6f}  {row['event']}  "
                f"{json.dumps(fields, sort_keys=True, default=str)}"
            )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.flight",
        description="Render a flight-recorder dump as a per-replica timeline.",
    )
    parser.add_argument("dump", help="path to a flight-*.json snapshot")
    parser.add_argument(
        "--tail",
        type=int,
        default=20,
        help="spans/events shown per replica (default 20)",
    )
    args = parser.parse_args(argv)
    with open(args.dump) as handle:
        snap = json.load(handle)
    print(render(snap, tail=args.tail))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    raise SystemExit(main())
