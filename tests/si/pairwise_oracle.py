"""The pairwise Def. 3 checker: the reference oracle for the keyed audit.

It derives every ww and reads-from edge by scanning every pair of
transactions, and checks Def. 1(ii) with its own pairwise loop, so it
shares no edge or conflict derivation with ``repro.si.onecopy``; only
the schedule model and the digraph's cycle search and witness order are
common.  Its verdicts, violation kinds and witnesses are what the keyed
audit must reproduce.
"""

from repro.si.graph import DiGraph
from repro.si.onecopy import OneCopyReport
from repro.si.schedule import BEGIN, COMMIT, Schedule, TxnSpec, Violation


def pairwise_def1(schedule: Schedule) -> list:
    """Def. 1 by scanning every pair (empty == an SI-schedule)."""
    seen = {}
    for index, event in enumerate(schedule.events):
        if event in seen or event[1] not in schedule.transactions:
            return [Violation("structure", f"duplicate or unknown event {event}")]
        seen[event] = index
    problems = []
    for tid in schedule.transactions:
        b, c = seen.get((BEGIN, tid)), seen.get((COMMIT, tid))
        if b is None or c is None or b > c:
            problems.append(Violation("structure", f"txn {tid}: no begin before commit"))
    if problems:
        return problems
    tids = list(schedule.transactions)
    for i, ti in enumerate(tids):
        for tj in tids[i + 1:]:
            if not schedule.transactions[ti].writeset & schedule.transactions[tj].writeset:
                continue
            b_i, c_i = seen[(BEGIN, ti)], seen[(COMMIT, ti)]
            b_j, c_j = seen[(BEGIN, tj)], seen[(COMMIT, tj)]
            if b_i < c_j < c_i or b_j < c_i < c_j:
                problems.append(Violation("si-ww", f"concurrent ww pair {ti},{tj}"))
    return problems


def pairwise_check(schedules: dict, locality: dict) -> OneCopyReport:
    """Def. 3 over hand-built per-replica schedules, pair by pair."""
    violations = [
        Violation("local-si", f"replica {name}: {violation}")
        for name, schedule in schedules.items()
        for violation in pairwise_def1(schedule)
    ]
    if violations:
        return OneCopyReport(ok=False, violations=violations)

    updates, readonly = {}, {}
    for name, schedule in schedules.items():
        for tid, spec in schedule.transactions.items():
            home = locality.get(tid)
            if home is None:
                violations.append(Violation("rowa", f"txn {tid} has no locality"))
            elif spec.writeset:
                known = updates.get(tid)
                if known is not None and known.writeset != spec.writeset:
                    violations.append(Violation("rowa", f"{tid}: writesets differ"))
                if home != name and spec.readset:
                    violations.append(Violation("rowa", f"remote {tid} has a readset"))
                if home == name or known is None:
                    readset = spec.readset if home == name else frozenset()
                    updates[tid] = TxnSpec(tid, readset, spec.writeset)
            else:
                if home != name:
                    violations.append(Violation("rowa", f"read-only {tid} at {name}"))
                readonly[tid] = spec
    violations += [
        Violation("rowa", f"update {tid} missing at {name}")
        for tid in updates
        for name, schedule in schedules.items()
        if tid not in schedule.transactions
    ]
    if violations:
        return OneCopyReport(ok=False, violations=violations)

    transactions = {**updates, **readonly}
    graph = DiGraph()
    for tid in transactions:
        graph.add_edge((BEGIN, tid), (COMMIT, tid))
    ids = list(updates)
    for i, ti in enumerate(ids):
        for tj in ids[i + 1:]:
            if not updates[ti].writeset & updates[tj].writeset:
                continue
            orders = {s.before((COMMIT, ti), (COMMIT, tj)) for s in schedules.values()}
            if len(orders) > 1:
                violations.append(Violation("ww-order", f"order of {ti},{tj}"))
                continue
            first, second = (ti, tj) if orders.pop() else (tj, ti)
            graph.add_edge((COMMIT, first), (COMMIT, second))
            graph.add_edge((COMMIT, first), (BEGIN, second))
    if violations:
        return OneCopyReport(ok=False, violations=violations)

    for tid, spec in transactions.items():
        schedule = schedules.get(locality[tid])
        if not spec.readset or schedule is None:
            continue
        for writer, writer_spec in updates.items():
            if writer == tid or not writer_spec.writeset & spec.readset:
                continue
            if schedule.before((COMMIT, writer), (BEGIN, tid)):
                graph.add_edge((COMMIT, writer), (BEGIN, tid))
            else:
                graph.add_edge((BEGIN, tid), (COMMIT, writer))

    cycle = graph.find_cycle()
    if cycle is not None:
        return OneCopyReport(
            ok=False,
            violations=[Violation("1-copy-si", "constraint cycle")],
            cycle=[edge[0] for edge in cycle],
        )
    order = graph.topological_order(key=str)
    return OneCopyReport(ok=True, witness=Schedule(transactions, order))
