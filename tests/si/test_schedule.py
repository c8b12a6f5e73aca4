"""Definition 1 & 2 tests, pinned to the paper's §2 examples."""

import pytest

from equivalence import equivalence_violations, equivalent

from repro.si import Schedule, TxnSpec

# The paper's running transactions:
# T1 = (b1, r1(x), w1(x), c1); T2 = (b2, r2(y), r2(x), w2(y), c2);
# T3 = (b3, w3(x), c3)
T1 = TxnSpec("1", readset=frozenset({"x"}), writeset=frozenset({"x"}))
T2 = TxnSpec("2", readset=frozenset({"y", "x"}), writeset=frozenset({"y"}))
T3 = TxnSpec("3", readset=frozenset(), writeset=frozenset({"x"}))
PAPER_TXNS = [T1, T2, T3]


def sched(text, txns=PAPER_TXNS):
    return Schedule.from_string(text, txns)


def test_paper_example_se_is_si_schedule():
    assert sched("b1 b2 c1 b3 c3 c2").is_si_schedule()


def test_paper_counterexample_not_si_schedule():
    # "b1 b2 b3 c1 c2 c3 ... is not an SI-schedule since b3 < c1 < c3 and
    # WS1 and WS3 overlap."
    s = sched("b1 b2 b3 c1 c2 c3")
    assert not s.is_si_schedule()
    assert any(v.rule == "si-ww" for v in s.violations())


def test_serial_execution_always_si():
    assert sched("b1 c1 b3 c3 b2 c2").is_si_schedule()


def test_concurrent_nonconflicting_ok():
    # T1 (w x) and T2 (w y) concurrent: no ww overlap, fine.
    assert sched("b1 b2 c1 c2 b3 c3").is_si_schedule()


def test_structure_violations():
    s = Schedule(transactions={"1": T1}, events=[("c", "1"), ("b", "1")])
    assert any(v.rule == "order" for v in s.violations())
    s = Schedule(transactions={"1": T1}, events=[("b", "1")])
    assert any("missing" in v.detail for v in s.violations())
    s = Schedule(transactions={"1": T1}, events=[("b", "1"), ("b", "1"), ("c", "1")])
    assert any("duplicate" in v.detail for v in s.violations())


def test_from_string_rejects_unknown_tokens():
    with pytest.raises(ValueError):
        sched("b9 c9")
    with pytest.raises(ValueError):
        sched("x1")


def test_before_and_commit_order():
    s = sched("b1 b2 c1 b3 c3 c2")
    assert s.before(("b", "1"), ("c", "1"))
    assert not s.before(("c", "2"), ("c", "1"))
    assert s.commit_order() == ["1", "3", "2"]


def test_reads_from_precedes():
    s = sched("b1 c1 b2 c2 b3 c3")
    assert s.reads_from_precedes("1", "2")
    s2 = sched("b1 b2 c1 b3 c3 c2")
    assert not s2.reads_from_precedes("1", "2")


# -- Definition 2 ---------------------------------------------------------------


def test_paper_equivalence_example():
    # "SE = b1 b2 c1 b3 c3 c2 is SI-equivalent to b2 b1 c1 b3 c2 c3."
    assert equivalent(sched("b1 b2 c1 b3 c3 c2"), sched("b2 b1 c1 b3 c2 c3"))


def test_paper_non_equivalence_b2_c1_swap():
    # "we cannot change the order of b2/c1 since T2 reads an object
    # written by T1."
    s1 = sched("b1 b2 c1 b3 c3 c2")
    s2 = sched("b1 c1 b2 b3 c3 c2")
    violations = equivalence_violations(s1, s2)
    assert any(v.rule == "reads-from" for v in violations)


def test_ww_commit_order_matters():
    # T1 and T3 both write x: commit order must match.
    s1 = sched("b1 c1 b3 c3 b2 c2")
    s2 = sched("b3 c3 b1 c1 b2 c2")
    violations = equivalence_violations(s1, s2)
    assert any(v.rule == "ww-order" for v in violations)


def test_equivalence_requires_same_transaction_set():
    s1 = sched("b1 c1 b3 c3 b2 c2")
    s2 = Schedule.from_string("b1 c1", [T1])
    assert not equivalent(s1, s2)


def test_equivalence_only_defined_over_si_schedules():
    s1 = sched("b1 b2 c1 b3 c3 c2")
    bad = sched("b1 b2 b3 c1 c2 c3")  # not an SI-schedule
    violations = equivalence_violations(s1, bad)
    assert any("not an SI-schedule" in v.detail for v in violations)


def test_equivalence_is_reflexive_and_symmetric():
    s1 = sched("b1 b2 c1 b3 c3 c2")
    s2 = sched("b2 b1 c1 b3 c2 c3")
    assert equivalent(s1, s1)
    assert equivalent(s1, s2) == equivalent(s2, s1)
