"""Definition 2: SI-equivalence of two SI-schedules over the same T.

A reference checker: only tests use it (the replicated audit of Def. 3
never compares two schedules), so it lives beside them.

S1 and S2 are SI-equivalent iff for any Ti, Tj:
  (i)  WS_i ∩ WS_j ≠ ∅  ⇒  (c_i < c_j) ∈ S1 ⇔ (c_i < c_j) ∈ S2
  (ii) WS_i ∩ RS_j ≠ ∅  ⇒  (c_i < b_j) ∈ S1 ⇔ (c_i < b_j) ∈ S2
"""

from __future__ import annotations

from repro.si.schedule import BEGIN, COMMIT, Schedule, Violation


def equivalence_violations(s1: Schedule, s2: Schedule) -> list[Violation]:
    """All Def. 2 violations between two schedules (empty == equivalent).

    Equivalence is only defined over SI-schedules on the same transaction
    set; structural problems are reported as violations too.
    """
    problems: list[Violation] = []
    if set(s1.transactions) != set(s2.transactions):
        return [Violation("structure", "schedules cover different transaction sets")]
    for label, schedule in (("S1", s1), ("S2", s2)):
        for violation in schedule.violations():
            problems.append(
                Violation("structure", f"{label} is not an SI-schedule: {violation}")
            )
    if problems:
        return problems
    tids = list(s1.transactions)
    for i, ti in enumerate(tids):
        spec_i = s1.transactions[ti]
        for tj in tids:
            if ti == tj:
                continue
            spec_j = s1.transactions[tj]
            if tj > ti and spec_i.writeset & spec_j.writeset:
                in_s1 = s1.before((COMMIT, ti), (COMMIT, tj))
                in_s2 = s2.before((COMMIT, ti), (COMMIT, tj))
                if in_s1 != in_s2:
                    problems.append(
                        Violation(
                            "ww-order",
                            f"commit order of ww-conflicting {ti},{tj} differs",
                        )
                    )
            if spec_i.writeset & spec_j.readset:
                in_s1 = s1.before((COMMIT, ti), (BEGIN, tj))
                in_s2 = s2.before((COMMIT, ti), (BEGIN, tj))
                if in_s1 != in_s2:
                    problems.append(
                        Violation(
                            "reads-from",
                            f"{tj} reads from {ti} in one schedule but not the other",
                        )
                    )
    return problems


def equivalent(s1: Schedule, s2: Schedule) -> bool:
    """True iff the schedules are SI-equivalent (Def. 2)."""
    return not equivalence_violations(s1, s2)
