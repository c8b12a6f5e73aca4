"""Definition 3: 1-copy-SI — the replicated correctness criterion.

Given the committed local schedule S^k of every replica, decide whether a
single global SI-schedule S exists such that each S^k relates to S as
Definition 3(ii) demands:

  (a) ww-conflicting commits ordered in S exactly as in every S^k, and
  (b) each *local* transaction's reads-from relation (c_i vs b_j for
      WS_i ∩ RS_j ≠ ∅) preserved.

Reduction to graph acyclicity
-----------------------------
Build a digraph over events {b_i, c_i}:

* ``b_i -> c_i`` for every transaction;
* for every ww-conflicting pair committed ``c_i`` before ``c_j`` at the
  replicas (they must all agree — checked first): ``c_i -> c_j`` *and*
  ``c_i -> b_j``.  The second edge is exactly Def. 1(ii): two
  ww-conflicting transactions may not be concurrent in S, so the later
  one must begin after the earlier commits;
* for every replica R_k, local transaction T_j at R_k, and update
  transaction T_i with WS_i ∩ RS_j ≠ ∅: ``c_i -> b_j`` if c_i preceded
  b_j in S^k, else ``b_j -> c_i``.

Any topological order of this graph is a valid witness S: all Def. 1 and
Def. 3(ii) constraints are edges, and unconstrained event pairs cannot
violate Def. 1 (which only restricts ww pairs, all fully constrained).
A cycle is a genuine counterexample — e.g. the §4.3.2 anomaly produces
``c_i < b_a < c_j`` at one replica and ``c_j < b_b < c_i`` at another,
which closes a cycle through the reads-from edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.si.graph import DiGraph
from repro.si.schedule import BEGIN, COMMIT, Schedule, TxnSpec, Violation


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


def check_one_copy_si(
    schedules: dict[str, Schedule],
    locality: dict[str, str],
) -> OneCopyReport:
    """Check Definition 3 over per-replica committed schedules.

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
    violations: list[Violation] = []

    # -- structural / property (i) checks -----------------------------------------
    for name, schedule in schedules.items():
        for violation in schedule.violations():
            violations.append(
                Violation("local-si", f"replica {name}: {violation}")
            )
    if violations:
        return OneCopyReport(ok=False, violations=violations)

    update_txns: dict[str, TxnSpec] = {}
    readonly_txns: dict[str, TxnSpec] = {}
    for name, schedule in schedules.items():
        for tid, spec in schedule.transactions.items():
            if tid not in locality:
                violations.append(
                    Violation("rowa", f"txn {tid} at {name} has no locality")
                )
                continue
            if spec.writeset:
                known = update_txns.get(tid)
                if known is not None and known.writeset != spec.writeset:
                    violations.append(
                        Violation(
                            "rowa",
                            f"txn {tid} has different writesets across replicas",
                        )
                    )
                if locality[tid] != name and spec.readset:
                    violations.append(
                        Violation(
                            "rowa",
                            f"remote txn {tid} at {name} has a readset",
                        )
                    )
                if locality[tid] == name or known is None:
                    update_txns[tid] = TxnSpec(
                        tid,
                        spec.readset if locality[tid] == name else frozenset(),
                        spec.writeset,
                    )
            else:
                if locality[tid] != name:
                    violations.append(
                        Violation(
                            "rowa",
                            f"read-only txn {tid} committed at non-local {name}",
                        )
                    )
                readonly_txns[tid] = spec
    for tid in update_txns:
        for name, schedule in schedules.items():
            if tid not in schedule.transactions:
                violations.append(
                    Violation(
                        "rowa", f"update txn {tid} missing at replica {name}"
                    )
                )
    if violations:
        return OneCopyReport(ok=False, violations=violations)

    transactions = {**update_txns, **readonly_txns}

    # -- (ii.a): ww-conflicting commit orders must agree across replicas ----------
    graph = DiGraph()
    for tid in transactions:
        graph.add_edge((BEGIN, tid), (COMMIT, tid))
    update_ids = list(update_txns)
    for i, ti in enumerate(update_ids):
        for tj in update_ids[i + 1:]:
            if not update_txns[ti].conflicts_with(update_txns[tj]):
                continue
            orders = set()
            for name, schedule in schedules.items():
                orders.add(schedule.before((COMMIT, ti), (COMMIT, tj)))
            if len(orders) > 1:
                violations.append(
                    Violation(
                        "ww-order",
                        f"replicas disagree on commit order of {ti},{tj}",
                    )
                )
                continue
            first, second = (ti, tj) if orders.pop() else (tj, ti)
            graph.add_edge((COMMIT, first), (COMMIT, second))
            graph.add_edge((COMMIT, first), (BEGIN, second))
    if violations:
        return OneCopyReport(ok=False, violations=violations)

    # -- (ii.b): reads-from relation of each local transaction --------------------
    for tid, spec in transactions.items():
        if not spec.readset:
            continue
        home = locality[tid]
        schedule = schedules.get(home)
        if schedule is None:
            # The transaction's home replica is not among the audited
            # schedules (e.g. it crashed); its reads-from constraints are
            # unobservable and impose nothing on S.
            continue
        for writer_id, writer in update_txns.items():
            if writer_id == tid or not (writer.writeset & spec.readset):
                continue
            if schedule.before((COMMIT, writer_id), (BEGIN, tid)):
                graph.add_edge((COMMIT, writer_id), (BEGIN, tid))
            else:
                graph.add_edge((BEGIN, tid), (COMMIT, writer_id))

    # -- feasibility -----------------------------------------------------------------
    cycle = graph.find_cycle()
    if cycle is not None:
        detail = " -> ".join(f"{k}{t}" for (k, t), _dst in cycle)
        return OneCopyReport(
            ok=False,
            violations=[Violation("1-copy-si", f"constraint cycle: {detail}")],
            cycle=[edge[0] for edge in cycle],
        )
    order = graph.topological_order(key=str)
    witness = Schedule(transactions=transactions, events=order)
    return OneCopyReport(ok=True, witness=witness)
