"""The paper's formalism (§2): SI-schedules and 1-copy-SI.

* :mod:`repro.si.schedule` — Definition 1 (SI-schedule) as a checkable
  object: a sequence of begin/commit events over transactions with
  read/writesets.  (Definition 2, SI-equivalence, is a reference
  checker beside the tests: ``tests/si/equivalence.py``.)
* :mod:`repro.si.onecopy` — Definition 3 (1-copy-SI): given the local
  history of every replica, decide whether a global SI-schedule exists
  that all of them are equivalent to, and produce it (or a counterexample
  cycle).  :class:`~repro.si.onecopy.KeyedAudit` is the one engine, fed
  live :class:`~repro.storage.engine.Database` histories entry by entry.
* :mod:`repro.si.graph` — the constraint digraph Def. 3 reduces to:
  first cycle by DFS, smallest-first topological order.
"""

from repro.si.onecopy import KeyedAudit, OneCopyReport, check_one_copy_si
from repro.si.schedule import Schedule, TxnSpec, Violation

__all__ = [
    "TxnSpec",
    "Schedule",
    "Violation",
    "check_one_copy_si",
    "OneCopyReport",
    "KeyedAudit",
]
