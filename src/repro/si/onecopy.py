"""Definition 3: 1-copy-SI — the replicated correctness criterion.

Given the committed local schedule S^k of every replica, decide whether a
single global SI-schedule S exists such that each S^k relates to S as
Definition 3(ii) demands:

  (a) ww-conflicting commits ordered in S exactly as in every S^k, and
  (b) each *local* transaction's reads-from relation (c_i vs b_j for
      WS_i ∩ RS_j ≠ ∅) preserved.

Reduction to graph acyclicity
-----------------------------
The constraint digraph is over events {b_i, c_i}: ``b_i -> c_i`` for
every transaction, ``c_i -> c_j`` and ``c_i -> b_j`` for every
ww-conflicting pair committed i first (the second edge is Def. 1(ii):
the later writer begins after the earlier commits), and for every local
reader T_j at its home replica R_k and every writer T_i of a key it
read, ``c_i -> b_j`` if c_i preceded b_j in S^k, else ``b_j -> c_i``.
Any topological order is a witness S; a cycle is a counterexample (the
§4.3.2 anomaly closes one through two readers' reads-from edges).

The replicas must agree on the commit order of every ww pair, so each
key's writers form one chain.  :class:`KeyedAudit` keeps that chain and
adds only the edges between consecutive writers of a key and, per
reader and key, the two edges to the last writer before its begin and
from it to the next writer.  With the ``b -> c`` edges the chain
implies every other edge above, so the graph has the same reachability
— the same cycles and, since the witness is the smallest-first
topological order, the same witness — at a size linear in the history.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional

from repro.si.graph import DiGraph
from repro.si.schedule import BEGIN, COMMIT, Schedule, TxnSpec, Violation

_position = itemgetter(0)


@dataclass
class OneCopyReport:
    """Outcome of the 1-copy-SI check."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)
    witness: Optional[Schedule] = None  # a global SI-schedule when ok
    cycle: Optional[list] = None  # offending event cycle when not ok

    def __str__(self) -> str:
        if self.ok:
            return f"1-copy-SI OK; witness: {self.witness}"
        lines = ["1-copy-SI VIOLATED:"]
        lines.extend(f"  {violation}" for violation in self.violations)
        if self.cycle:
            chain = " -> ".join(f"{k}{t}" for k, t in self.cycle)
            lines.append(f"  cycle: {chain}")
        return "\n".join(lines)


class _Replica:
    """One replica's side of the audit."""

    __slots__ = ("name", "covered", "position", "begun", "committed", "writers", "scanned")

    def __init__(self, name: str, covered: frozenset):
        self.name = name
        #: gids committed here before the history began, in no known order
        self.covered = covered
        self.position = 0
        #: gid -> (position, entry) of its latest begin not yet committed
        self.begun: dict[str, tuple[int, tuple]] = {}
        #: gid -> commit position
        self.committed: dict[str, int] = {}
        #: key -> [(commit position, writer)] in this replica's order;
        #: covered writers go first, at position -1
        self.writers: dict[Any, list[tuple[int, str]]] = {}
        #: key -> how much of its chain was searched for covered writers
        self.scanned: dict[Any, int] = {}


class KeyedAudit:
    """The Def. 3 engine over per-replica ``db.history`` entries.

    ``feed`` takes one ``("begin", gid, csn, remote, ...)`` or
    ``("commit", gid, csn, readset, writeset, ...)`` entry of one
    replica at a time, so it serves a finished run and a running one
    alike.  A retried remote apply begins several times; the begin that
    counts is the last one before the commit.  A transaction is local
    where its begin is not remote; its readset counts there only.

    Each key's writers are chained in the order they first commit
    (``rank``); a replica committing two of them the other way round is
    a ``ww-order`` violation.  A reader whose next writer has not
    committed yet waits on the key for it.
    """

    def __init__(self) -> None:
        self.graph = DiGraph()
        self.replicas: dict[str, _Replica] = {}
        #: gid -> writeset (empty: read-only), as first committed
        self.writesets: dict[str, frozenset] = {}
        #: gid -> (home replica, the begin entry that counts) of local txns
        self.local: dict[str, tuple[str, tuple]] = {}
        self.readsets: dict[str, frozenset] = {}
        #: writer -> its place in every chain it is on
        self.rank: dict[str, int] = {}
        self.chains: dict[Any, list[str]] = {}
        #: key -> readers waiting for its next writer: (reader, home, begin)
        self.waiting: dict[Any, list[tuple[str, _Replica, int]]] = {}
        #: ``rowa`` and ``ww-order`` violations, in the order found
        self.violations: list[Violation] = []
        #: Def. 1 violations of a replica's own schedule
        self.local_si: list[Violation] = []

    # -- input -------------------------------------------------------------------

    def watch(self, name: str, prefix=(), covered=(), history=()) -> list[Violation]:
        """Start a replica; returns the violations its prefix shows.

        ``prefix`` is what a log replay committed here before ``history``
        began, as ``(gid, keys)`` in commit order; it is fed as remote
        writes-only transactions, except a gid ``history`` commits
        itself.  ``covered`` names gids committed here before the history
        began in no known order (a snapshot join): they count as
        committed before every event here, are never ww-ordered here,
        and a replica with any of them starts no chain.
        """
        self.replicas[name] = _Replica(name, frozenset(covered))
        mark = len(self.violations)
        if prefix:
            in_history = {entry[1] for entry in history if entry[0] == "commit"}
            for gid, keys in prefix:
                if gid not in in_history:
                    self.feed(name, ("begin", gid, None, True))
                    self.feed(name, ("commit", gid, None, frozenset(), keys))
        return self.violations[mark:]

    def feed_history(self, name: str, history: list[tuple], prefix=()) -> None:
        """Watch replica ``name`` and feed its whole recorded history."""
        self.watch(name, prefix, history=history)
        for entry in history:
            self.feed(name, entry)

    def feed(self, name: str, entry: tuple) -> list[Violation]:
        """Consume one history entry of replica ``name``; returns the
        ``rowa`` / ``ww-order`` violations it shows."""
        replica = self.replicas[name]
        replica.position += 1
        gid = entry[1]
        if entry[0] == "begin":
            replica.begun[gid] = (replica.position, entry)
            return []
        if gid in replica.committed:
            return []
        mark = len(self.violations)
        position = replica.committed[gid] = replica.position
        readset, writeset = frozenset(entry[3]), frozenset(entry[4])
        known = self.writesets.get(gid)
        if known is None:
            self.writesets[gid] = known = writeset
            self.graph.add_edge((BEGIN, gid), (COMMIT, gid))
        elif known != writeset:
            self.violations.append(Violation(
                "rowa", f"txn {gid} has different writesets across replicas "
                f"(seen at {name})", (gid,)))
        began = replica.begun.pop(gid, None)
        if began is None:
            self.local_si.append(
                Violation("local-si", f"replica {name}: txn {gid} missing begin")
            )
        local = began is not None and not began[1][3]
        if local:
            self.local.setdefault(gid, (name, began[1]))
            if readset:
                self.readsets[gid] = readset
        elif readset or not known:
            self.violations.append(Violation(
                "rowa", f"txn {gid} at non-local {name} has a readset or no writes",
                (gid,)))
        if known:
            self._write(replica, gid, known, position, began)
        if local and readset:
            self._read(replica, gid, readset, began[0])
        return self.violations[mark:]

    # -- edges -------------------------------------------------------------------

    def _write(self, replica: _Replica, gid: str, writeset, position, began) -> None:
        rank = self.rank
        if gid not in rank and not replica.covered:
            self._chain(gid, writeset)
        for key in writeset:
            mine = replica.writers.setdefault(key, [])
            if mine:
                prev_position, prev = mine[-1]
                if began is not None and began[0] < prev_position:
                    self.local_si.append(Violation(
                        "local-si",
                        f"replica {replica.name}: concurrent ww-conflicting "
                        f"txns {prev},{gid} on [{key!r}]",
                    ))
                if (
                    prev_position >= 0 and gid in rank and prev in rank
                    and rank[gid] < rank[prev]
                ):
                    self.violations.append(Violation(
                        "ww-order",
                        f"replicas disagree on the commit order of the "
                        f"ww-conflicting pair {gid},{prev} ({replica.name} "
                        f"commits {prev} first)",
                        tuple(sorted((gid, prev))),
                    ))
            mine.append((position, gid))

    def _chain(self, gid: str, writeset) -> None:
        """``gid`` commits for the first time at a replica that can order
        it: it goes last on each key it writes."""
        self.rank[gid] = len(self.rank)
        add_edge = self.graph.add_edge
        for key in writeset:
            chain = self.chains.setdefault(key, [])
            if chain:
                add_edge((COMMIT, chain[-1]), (COMMIT, gid))
                add_edge((COMMIT, chain[-1]), (BEGIN, gid))
            chain.append(gid)
            for reader, home, begin in self.waiting.pop(key, ()):
                if home.committed.get(gid, begin) < begin or gid in home.covered:
                    # committed at the reader's home before it began: the
                    # reader still waits for the writer after this one
                    add_edge((COMMIT, gid), (BEGIN, reader))
                    self.waiting.setdefault(key, []).append((reader, home, begin))
                else:
                    add_edge((BEGIN, reader), (COMMIT, gid))

    def _read(self, replica: _Replica, reader: str, readset, begin: int) -> None:
        """The reader's two edges per key: from the last writer its home
        committed before it began, to the writer after that one."""
        add_edge = self.graph.add_edge
        rank = self.rank
        for key in readset:
            chain = self.chains.get(key, ())
            mine = replica.writers.get(key, ())
            if replica.covered:
                mine = replica.writers.setdefault(key, [])
                for gid in chain[replica.scanned.get(key, 0):]:
                    if gid in replica.covered and gid not in replica.committed:
                        mine.insert(bisect_left(mine, 0, key=_position), (-1, gid))
                replica.scanned[key] = len(chain)
            index = bisect_left(mine, begin, key=_position)
            last = mine[index - 1][1] if index else None
            if last is not None:
                add_edge((COMMIT, last), (BEGIN, reader))
            if index < len(mine):
                following = mine[index][1]
            else:
                if last is None:
                    after = 0
                elif last in rank:
                    after = bisect_right(chain, rank[last], key=rank.__getitem__)
                else:
                    after = len(chain)
                following = chain[after] if after < len(chain) else None
            if following is None:
                self.waiting.setdefault(key, []).append((reader, replica, begin))
            elif following != reader:
                add_edge((BEGIN, reader), (COMMIT, following))

    # -- verdict -----------------------------------------------------------------

    def report(self) -> OneCopyReport:
        """The Def. 3 verdict over everything fed: Def. 1 at each replica,
        then ROWA (every update committed at every replica), then
        ww-order agreement, then acyclicity and the witness."""
        if self.local_si:
            return OneCopyReport(ok=False, violations=list(self.local_si))
        rowa = [v for v in self.violations if v.rule == "rowa"]
        for gid, writeset in self.writesets.items():
            if writeset:
                rowa += [
                    Violation("rowa", f"update txn {gid} missing at replica {name}", (gid,))
                    for name, replica in self.replicas.items()
                    if gid not in replica.committed
                ]
        if rowa:
            return OneCopyReport(ok=False, violations=rowa)
        ww = [v for v in self.violations if v.rule == "ww-order"]
        if ww:
            return OneCopyReport(ok=False, violations=ww)
        cycle = self.graph.find_cycle()
        if cycle is not None:
            detail = " -> ".join(f"{k}{t}" for (k, t), _dst in cycle)
            return OneCopyReport(
                ok=False,
                violations=[Violation("1-copy-si", f"constraint cycle: {detail}")],
                cycle=[edge[0] for edge in cycle],
            )
        transactions = {
            gid: TxnSpec(gid, self.readsets.get(gid, frozenset()), writeset)
            for gid, writeset in self.writesets.items()
        }
        order = self.graph.topological_order(key=str)
        return OneCopyReport(ok=True, witness=Schedule(transactions, order))


def check_one_copy_si(
    schedules: dict[str, Schedule],
    locality: dict[str, str],
) -> OneCopyReport:
    """Check Definition 3 over hand-built per-replica committed schedules.

    Parameters
    ----------
    schedules:
        replica name -> its local :class:`Schedule`.  Remote transactions
        must appear with empty readsets (the ROWA mapping).
    locality:
        global transaction id -> the replica where it executed (was
        local).  Read-only transactions appear only at their local
        replica.
    """
    violations = [
        Violation("local-si", f"replica {name}: {violation}")
        for name, schedule in schedules.items()
        for violation in schedule.violations()
    ]
    if not violations:
        violations = [
            Violation("rowa", f"txn {tid} at {name} has no locality", (tid,))
            for name, schedule in schedules.items()
            for tid in schedule.transactions
            if tid not in locality
        ]
    if violations:
        return OneCopyReport(ok=False, violations=violations)
    audit = KeyedAudit()
    for name, schedule in schedules.items():
        audit.watch(name)
        for kind, tid in schedule.events:
            if kind == BEGIN:
                audit.feed(name, ("begin", tid, None, locality[tid] != name))
            else:
                spec = schedule.transactions[tid]
                audit.feed(name, ("commit", tid, None, spec.readset, spec.writeset))
    return audit.report()
