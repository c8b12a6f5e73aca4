"""The paper's formalism (§2): SI-schedules, equivalence, 1-copy-SI.

* :mod:`repro.si.schedule` — Definition 1 (SI-schedule) as a checkable
  object: a sequence of begin/commit events over transactions with
  read/writesets.
* :mod:`repro.si.equivalence` — Definition 2 (SI-equivalence of two
  schedules over the same transactions).
* :mod:`repro.si.onecopy` — Definition 3 (1-copy-SI): given the local
  schedule of every replica, decide whether a global SI-schedule exists
  that all of them are equivalent to, and produce it (or a counterexample
  cycle).
* :mod:`repro.si.graph` — the constraint digraph Def. 3 reduces to:
  first cycle by DFS, smallest-first topological order.
* :mod:`repro.si.recorder` — builds those schedules from live
  :class:`~repro.storage.engine.Database` histories.
"""

from repro.si.equivalence import equivalent
from repro.si.onecopy import OneCopyReport, check_one_copy_si
from repro.si.recorder import recorded_schedules
from repro.si.schedule import Schedule, TxnSpec, Violation

__all__ = [
    "TxnSpec",
    "Schedule",
    "Violation",
    "equivalent",
    "check_one_copy_si",
    "OneCopyReport",
    "recorded_schedules",
]
