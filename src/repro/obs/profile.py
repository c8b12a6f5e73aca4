"""Critical-path latency attribution over the causal span trees.

The span tracer (``repro.obs.trace``) records *where a transaction was*;
this module answers *where its milliseconds went*.  For every traced
transaction it folds the span tree into a *phase attribution*: each
instant of the root interval is charged to exactly one protocol phase —

* ``hole_start_wait`` — adjustment-3 stall before the snapshot begins,
* ``local_execution`` — statements executing at the home replica,
* ``sequencing`` — multicast to total-order position (GCS sequencer),
* ``fanout`` — sequenced to delivered (bus fan-out + batch window),
* ``certify`` — certification itself (instantaneous bookkeeping in the
  simulator: its cost shows up as queueing, and the report says so),
* ``commit_queue`` — validated but waiting behind queue predecessors,
* ``commit`` — the install + (group-)commit force, and, for routed
  reads,
* ``read_admission`` — FIFO admission-queue wait at the driver,
* ``staleness_wait`` — watermark wait (session token / staleness bound)
  at the serving replica.

Anything not covered by a span is ``other``.  The attribution is a
*sweep* over the root interval: overlapping spans are resolved by phase
priority, so nothing is ever double-counted and the per-phase times sum
to the end-to-end latency **exactly** (asserted in tests to 1%, achieved
to float epsilon).  This is the per-phase protocol-cost methodology of
the NMSI evaluation (Ardekani et al.) applied to SI-Rep: the §6 figures
report end-to-end response time; the profiler explains it.

The aggregate :class:`ProfileReport` adds queueing diagnostics derived
from the existing gauge time-series: per-replica CPU utilization and a
Little's-law consistency check of the sampled ``tocommit_depth`` against
observed throughput × queue sojourn — when the two disagree, the sampler
or the attribution is lying, and the report flags it.

Everything here is read-only post-processing: it consumes finished spans
(live ``Tracer`` objects, ``Span`` instances, or the dicts of a JSONL
export) and never touches the simulation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.obs.metrics import quantile, sanitize

#: canonical phase order (report columns, rendering)
PHASES = (
    "hole_start_wait",
    "local_execution",
    "sequencing",
    "fanout",
    "certify",
    "commit_queue",
    "commit",
    "read_admission",
    "staleness_wait",
    "other",
)

#: span name -> phase.  ``gcs`` is the container around sequencing +
#: fanout: it maps to ``fanout`` at the LOWEST priority so its children
#: claim their sub-intervals first and only the residual (delivery gaps)
#: falls to fanout.  ``apply`` is the re-homed/remote install work —
#: same phase as ``commit``.
NAME_TO_PHASE = {
    "hole_start_wait": "hole_start_wait",
    "local_execution": "local_execution",
    "writeset_extract": "local_execution",
    "local_validation": "certify",
    "gcs_sequencing": "sequencing",
    "gcs_fanout": "fanout",
    "gcs": "fanout",
    "certify": "certify",
    "commit_queue": "commit_queue",
    "commit": "commit",
    "apply": "commit",
    "read_admission": "read_admission",
    "staleness_wait": "staleness_wait",
    "read_serve": "local_execution",
    "read_commit": "commit",
    "route_statement": "local_execution",
}

#: overlap resolution: lower index wins.  ``gcs`` (fallback fanout) is
#: injected at the very end so explicit sequencing/fanout children beat it.
_PRIORITY = [
    "hole_start_wait",
    "read_admission",
    "staleness_wait",
    "sequencing",
    "certify",
    "commit_queue",
    "commit",
    "local_execution",
    "fanout",
]

#: span names that open a new attribution tree
ROOT_NAMES = ("txn", "read_txn", "deliver", "route", "inquiry")

#: cross-replica (link-edge) spans pulled INTO a root's attribution: the
#: client genuinely blocks on these even though they run on another
#: replica.  Remote ``deliver`` trees also link into the home ``gcs``
#: span but are NOT on the home critical path — they are profiled as
#: their own roots instead.
_LINK_STITCH_NAMES = frozenset({"staleness_wait"})


@dataclass
class _Rec:
    """Normalized span record (Span object or JSONL dict)."""

    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    link: Optional[int]
    start: float
    end: float
    replica: str
    status: str
    attrs: dict
    #: still open at export time (in-flight when the run ended)
    unfinished: bool = False


def _normalize(span: Any) -> Optional[_Rec]:
    if isinstance(span, dict):
        get = span.get
    else:
        get = lambda key, default=None: getattr(span, key, default)  # noqa: E731
    end = get("end")
    start = get("start")
    if start is None:
        return None
    return _Rec(
        name=get("name", ""),
        trace_id=get("trace_id", ""),
        span_id=get("span_id", 0),
        parent_id=get("parent_id"),
        link=get("link"),
        start=float(start),
        # an open span (crash without close) attributes up to its start
        end=float(end) if end is not None else float(start),
        replica=get("replica", "") or "",
        status=get("status", "ok") or "ok",
        attrs=dict(get("attrs") or {}),
        unfinished=end is None,
    )


def _iter_spans(source: Any) -> list[_Rec]:
    """Accept a Tracer, an iterable of Span/dicts, or a JSONL string."""
    if hasattr(source, "spans"):  # Tracer
        raw: Iterable[Any] = list(source.spans()) + list(source.open_spans())
    elif isinstance(source, str):
        raw = [json.loads(line) for line in source.splitlines() if line.strip()]
    else:
        raw = source
    out = []
    for span in raw:
        rec = _normalize(span)
        if rec is not None:
            out.append(rec)
    return out


# ---------------------------------------------------------------- attribution


@dataclass
class TxnProfile:
    """One transaction's critical-path phase attribution."""

    trace_id: str
    kind: str  #: root span name: txn / read_txn / deliver / route / inquiry
    replica: str
    start: float
    end: float
    status: str
    #: phase -> seconds on the critical path (sums to ``total`` exactly)
    phases: dict[str, float]
    #: merged (phase, start, end) segments covering [start, end]
    segments: list[tuple[str, float, float]] = field(default_factory=list)
    #: zero-length markers (certify verdicts etc.): (name, t, status)
    markers: list[tuple[str, float, str]] = field(default_factory=list)
    #: True for update transactions that went through replication
    replicated: bool = False

    @property
    def total(self) -> float:
        return self.end - self.start

    @property
    def attribution_error(self) -> float:
        """Relative |sum(phases) - total| — ~float epsilon by construction."""
        if self.total <= 0.0:
            return 0.0
        return abs(sum(self.phases.values()) - self.total) / self.total

    def render(self, width: int = 56) -> str:
        """ASCII critical path: one bar segment per attributed phase."""
        lines = [
            f"{self.trace_id}  [{self.kind}@{self.replica}]  "
            f"{self.total * 1e3:.2f} ms  status={self.status}"
        ]
        total = max(self.total, 1e-12)
        for phase, seg_start, seg_end in self.segments:
            seconds = seg_end - seg_start
            bar = max(1, round(width * seconds / total))
            lines.append(
                f"  {phase:<16} {'#' * bar:<{width}} "
                f"{seconds * 1e3:9.3f} ms  (+{(seg_start - self.start) * 1e3:.3f})"
            )
        for name, at, status in self.markers:
            lines.append(
                f"  {name:<16} @ +{(at - self.start) * 1e3:.3f} ms [{status}]"
            )
        return "\n".join(lines)


def _sweep(
    root: _Rec, intervals: list[tuple[str, float, float]]
) -> tuple[dict[str, float], list[tuple[str, float, float]]]:
    """Charge every instant of the root interval to exactly one phase.

    ``intervals`` may overlap arbitrarily (container spans, stitched
    cross-replica waits); priority resolves each elementary segment to
    one phase and uncovered time becomes ``other`` — so the per-phase
    sums reconstruct the end-to-end duration exactly, never double- or
    under-counting.
    """
    lo, hi = root.start, root.end
    phases = {phase: 0.0 for phase in PHASES}
    if hi <= lo:
        return phases, []
    clipped = [
        (phase, max(start, lo), min(end, hi))
        for phase, start, end in intervals
        if min(end, hi) > max(start, lo)
    ]
    points = sorted({lo, hi, *(s for _, s, _ in clipped), *(e for _, _, e in clipped)})
    rank = {phase: index for index, phase in enumerate(_PRIORITY)}
    segments: list[tuple[str, float, float]] = []
    for seg_start, seg_end in zip(points, points[1:]):
        covering = [
            phase
            for phase, start, end in clipped
            if start <= seg_start and end >= seg_end
        ]
        phase = (
            min(covering, key=lambda p: rank.get(p, len(rank)))
            if covering
            else "other"
        )
        phases[phase] += seg_end - seg_start
        if segments and segments[-1][0] == phase and segments[-1][2] == seg_start:
            segments[-1] = (phase, segments[-1][1], seg_end)
        else:
            segments.append((phase, seg_start, seg_end))
    return phases, segments


def profile_spans(source: Any) -> list[TxnProfile]:
    """Build one :class:`TxnProfile` per traced root span.

    Each root ("txn", "read_txn", "deliver", "route", "inquiry") is
    attributed independently over its own interval, so overlapping trees
    of one trace — a home transaction, its remote applies, a failover
    inquiry — never double-count each other.
    """
    records = _iter_spans(source)
    by_id = {rec.span_id: rec for rec in records}
    children: dict[int, list[_Rec]] = {}
    by_link: dict[int, list[_Rec]] = {}
    by_trace: dict[str, list[_Rec]] = {}
    for rec in records:
        if rec.parent_id is not None:
            children.setdefault(rec.parent_id, []).append(rec)
        if rec.link is not None:
            by_link.setdefault(rec.link, []).append(rec)
        by_trace.setdefault(rec.trace_id, []).append(rec)

    def tree_of(root: _Rec) -> list[_Rec]:
        out, stack = [], [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(children.get(node.span_id, ()))
        return out

    profiles = []
    for rec in records:
        if rec.name not in ROOT_NAMES or rec.parent_id is not None:
            continue
        if rec.unfinished:
            continue  # in-flight at run end: not a completed life

        tree = tree_of(rec)
        # cross-replica waits the client blocked on (link edges)
        for node in list(tree):
            for linked in by_link.get(node.span_id, ()):
                if linked.name in _LINK_STITCH_NAMES:
                    tree.append(linked)
                    tree.extend(tree_of(linked)[1:])
        if rec.name == "route":
            # cross-shard stitching: each routed statement names the
            # branch transaction's gid, whose home tree carries the
            # per-group replication phases — fold those spans into the
            # route interval (the sweep de-overlaps them)
            branch_gids = {
                node.attrs.get("branch_gid")
                for node in tree
                if node.name == "route_statement"
            }
            for gid in branch_gids:
                if not gid:
                    continue
                for branch in by_trace.get(gid, ()):
                    if branch.name in ROOT_NAMES:
                        continue  # the branch root itself is scaffolding
                    tree.append(branch)
        intervals, markers = [], []
        replicated = False
        for node in tree:
            if node is rec:
                continue
            if node.name in ("gcs", "gcs_sequencing", "gcs_fanout", "certify"):
                replicated = True
            phase = NAME_TO_PHASE.get(node.name)
            if phase is None:
                continue
            if node.end <= node.start:
                markers.append((node.name, node.start, node.status))
                continue
            intervals.append((phase, node.start, node.end))
        phases, segments = _sweep(rec, intervals)
        profiles.append(
            TxnProfile(
                trace_id=rec.trace_id,
                kind=rec.name,
                replica=rec.replica,
                start=rec.start,
                end=rec.end,
                status=rec.status,
                phases=phases,
                segments=segments,
                markers=sorted(markers, key=lambda m: m[1]),
                replicated=replicated,
            )
        )
    return profiles


# ----------------------------------------------------------------- aggregation


def _phase_stats(samples: dict[str, list[float]], totals: list[float]) -> dict:
    grand_total = sum(totals) or float("nan")
    out = {}
    for phase in PHASES:
        values = sorted(samples.get(phase, ()))
        if not values:
            continue
        total = sum(values)
        out[phase] = {
            "mean_ms": total / len(values) * 1e3,
            "p50_ms": quantile(values, 0.50) * 1e3,
            "p95_ms": quantile(values, 0.95) * 1e3,
            "fraction": total / grand_total,
        }
    return out


@dataclass
class ProfileReport:
    """Aggregated bottleneck report over one run's transaction profiles."""

    profiles: list[TxnProfile]
    #: gauge time-series rows (the Sampler's ``series()``), optional
    series: Optional[list[dict]] = None
    #: observed committed-update throughput (txn/s), optional
    throughput: Optional[float] = None

    # -- derived ---------------------------------------------------------------

    def updates(self) -> list[TxnProfile]:
        """Committed update transactions (went through replication)."""
        return [
            p
            for p in self.profiles
            if p.kind == "txn" and p.status == "ok" and p.replicated
        ]

    def reads(self) -> list[TxnProfile]:
        return [p for p in self.profiles if p.kind == "read_txn"]

    def slowest(self, n: int = 5, kind: Optional[str] = None) -> list[TxnProfile]:
        pool = [p for p in self.profiles if kind is None or p.kind == kind]
        return sorted(pool, key=lambda p: p.total, reverse=True)[:n]

    def _aggregate(self, pool: Sequence[TxnProfile]) -> dict:
        samples: dict[str, list[float]] = {}
        totals = []
        for profile in pool:
            totals.append(profile.total)
            for phase, seconds in profile.phases.items():
                if seconds > 0.0:
                    samples.setdefault(phase, []).append(seconds)
        ordered_totals = sorted(totals)
        # the p95 tail: which phase dominates the slowest transactions?
        tail_cut = quantile(ordered_totals, 0.95) if totals else float("nan")
        tail = [p for p in pool if p.total >= tail_cut] if totals else []
        tail_phase_sums = {phase: 0.0 for phase in PHASES}
        for profile in tail:
            for phase, seconds in profile.phases.items():
                tail_phase_sums[phase] += seconds
        dominant = (
            max(tail_phase_sums, key=tail_phase_sums.get) if tail else None
        )
        return {
            "n": len(pool),
            "total_ms": {
                "mean": (sum(totals) / len(totals) * 1e3) if totals else None,
                "p50": quantile(ordered_totals, 0.50) * 1e3 if totals else None,
                "p95": tail_cut * 1e3 if totals else None,
            },
            "phases": _phase_stats(samples, totals),
            "tail": {
                "n": len(tail),
                "dominant_phase": dominant,
                "phase_ms": {
                    phase: seconds / len(tail) * 1e3
                    for phase, seconds in tail_phase_sums.items()
                    if tail and seconds > 0.0
                },
            },
            "max_attribution_error": max(
                (p.attribution_error for p in pool), default=0.0
            ),
        }

    def queueing(self) -> dict:
        """Per-replica queueing diagnostics from the sampled gauges.

        Little's law: mean queue depth L should equal arrival rate λ ×
        mean sojourn W.  λ is the observed update throughput (every
        replica enqueues every certified writeset), W the mean
        ``commit_queue`` + ``commit`` residence from the attribution.
        ``littles_ratio`` far from 1 means the sampled depth and the
        attributed sojourn disagree — a red flag on either measurement.
        """
        out: dict[str, Any] = {"replicas": {}}
        if not self.series:
            return out
        sums: dict[str, tuple[float, int]] = {}
        for row in self.series:
            for key, value in row.items():
                if value is None or key == "t":
                    continue
                if key.endswith(".tocommit_depth") or key.endswith(
                    ".cpu_utilization"
                ):
                    total, count = sums.get(key, (0.0, 0))
                    sums[key] = (total + value, count + 1)
        for key, (total, count) in sorted(sums.items()):
            replica, _, gauge = key.rpartition(".")
            out["replicas"].setdefault(replica, {})[f"mean_{gauge}"] = (
                total / count if count else None
            )
        updates = self.updates()
        if updates and self.throughput:
            sojourn = sum(
                p.phases["commit_queue"] + p.phases["commit"] for p in updates
            ) / len(updates)
            implied_depth = self.throughput * sojourn
            out["littles"] = {
                "throughput_tps": self.throughput,
                "mean_sojourn_ms": sojourn * 1e3,
                "implied_depth": implied_depth,
            }
            depths = [
                stats["mean_tocommit_depth"]
                for stats in out["replicas"].values()
                if stats.get("mean_tocommit_depth") is not None
            ]
            if depths and implied_depth > 0.0:
                mean_depth = sum(depths) / len(depths)
                out["littles"]["mean_sampled_depth"] = mean_depth
                out["littles"]["littles_ratio"] = mean_depth / implied_depth
        return out

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict:
        statuses: dict[str, int] = {}
        for profile in self.profiles:
            key = f"{profile.kind}:{profile.status}"
            statuses[key] = statuses.get(key, 0) + 1
        out = {
            "schema": 1,
            "n_profiles": len(self.profiles),
            "statuses": statuses,
            "updates": self._aggregate(self.updates()),
        }
        reads = self.reads()
        if reads:
            out["reads"] = self._aggregate(reads)
        queueing = self.queueing()
        if queueing.get("replicas") or queueing.get("littles"):
            out["queueing"] = queueing
        return sanitize(out)

    def render(self, top: int = 0) -> str:
        """Human-readable phase table (+ the top-N slowest paths)."""
        report = self.to_dict()
        lines = []
        for group in ("updates", "reads"):
            stats = report.get(group)
            if not stats or not stats["n"]:
                continue
            totals = stats["total_ms"]
            lines.append(
                f"{group}: n={stats['n']}  total p50={totals['p50']:.2f} ms "
                f"p95={totals['p95']:.2f} ms  "
                f"tail-dominant={stats['tail']['dominant_phase']}"
            )
            lines.append(
                f"  {'phase':<16} {'mean ms':>9} {'p50 ms':>9} "
                f"{'p95 ms':>9} {'share':>7}"
            )
            for phase in PHASES:
                row = stats["phases"].get(phase)
                if row is None:
                    continue
                lines.append(
                    f"  {phase:<16} {row['mean_ms']:>9.3f} {row['p50_ms']:>9.3f} "
                    f"{row['p95_ms']:>9.3f} {row['fraction']:>6.1%}"
                )
        littles = report.get("queueing", {}).get("littles")
        if littles and littles.get("littles_ratio") is not None:
            lines.append(
                "queueing: L={:.2f} sampled vs λW={:.2f} implied "
                "(ratio {:.2f}, λ={:.1f} tps, W={:.2f} ms)".format(
                    littles["mean_sampled_depth"],
                    littles["implied_depth"],
                    littles["littles_ratio"],
                    littles["throughput_tps"],
                    littles["mean_sojourn_ms"],
                )
            )
        for profile in self.slowest(top):
            lines.append("")
            lines.append(profile.render())
        return "\n".join(lines)


def profile_run(
    source: Any,
    series: Optional[list[dict]] = None,
    throughput: Optional[float] = None,
) -> ProfileReport:
    """One call from tracer (or exported spans) to bottleneck report."""
    return ProfileReport(
        profiles=profile_spans(source), series=series, throughput=throughput
    )


# ------------------------------------------------------------------- compare


def compare_reports(before: dict, after: dict, group: str = "updates") -> dict:
    """Per-phase delta between two report dicts (``--compare``).

    Accepts raw report dicts or BENCH_*.json files' ``profile`` payloads.
    """
    before = before.get("profile", before)
    after = after.get("profile", after)
    rows = {}
    b_phases = before.get(group, {}).get("phases", {})
    a_phases = after.get(group, {}).get("phases", {})
    for phase in PHASES:
        b_row, a_row = b_phases.get(phase), a_phases.get(phase)
        if b_row is None and a_row is None:
            continue
        b_mean = b_row["mean_ms"] if b_row else 0.0
        a_mean = a_row["mean_ms"] if a_row else 0.0
        rows[phase] = {
            "before_ms": b_mean,
            "after_ms": a_mean,
            "delta_ms": a_mean - b_mean,
            "ratio": (a_mean / b_mean) if b_mean else None,
        }
    b_total = before.get(group, {}).get("total_ms", {})
    a_total = after.get(group, {}).get("total_ms", {})
    return sanitize(
        {
            "group": group,
            "total_p95_before_ms": b_total.get("p95"),
            "total_p95_after_ms": a_total.get("p95"),
            "phases": rows,
        }
    )


def _render_compare(delta: dict) -> str:
    lines = [
        "{}: total p95 {} -> {} ms".format(
            delta["group"],
            _fmt(delta["total_p95_before_ms"]),
            _fmt(delta["total_p95_after_ms"]),
        ),
        f"  {'phase':<16} {'before':>9} {'after':>9} {'delta':>9} {'ratio':>7}",
    ]
    for phase, row in delta["phases"].items():
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "new"
        lines.append(
            f"  {phase:<16} {row['before_ms']:>9.3f} {row['after_ms']:>9.3f} "
            f"{row['delta_ms']:>+9.3f} {ratio:>7}"
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    return f"{value:.2f}" if isinstance(value, (int, float)) else "?"


# ----------------------------------------------------------------------- CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description=(
            "Critical-path latency attribution from exported span JSONL "
            "(Tracer.to_jsonl) or saved profile/BENCH_*.json reports."
        ),
    )
    parser.add_argument(
        "spans", nargs="?", default=None,
        help="span JSONL file to profile (one strict-JSON span per line)",
    )
    parser.add_argument(
        "--top", type=int, default=3,
        help="render the N slowest transactions' critical paths",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump the aggregate report as strict JSON",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
        help="diff two saved reports (profile JSON or BENCH_*.json)",
    )
    parser.add_argument(
        "--group", default="updates", choices=["updates", "reads"],
        help="which transaction class --compare diffs",
    )
    args = parser.parse_args(argv)
    if args.compare:
        with open(args.compare[0]) as handle:
            before = json.load(handle)
        with open(args.compare[1]) as handle:
            after = json.load(handle)
        delta = compare_reports(before, after, group=args.group)
        print(_render_compare(delta))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(delta, handle, indent=2, allow_nan=False)
        return 0
    if not args.spans:
        parser.error("give a span JSONL file or --compare BEFORE AFTER")
    with open(args.spans) as handle:
        report = profile_run(handle.read())
    print(report.render(top=args.top))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
