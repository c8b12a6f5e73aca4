"""Property tests: Definition 2 is an equivalence relation over the
SI-schedules of a transaction set, and is insensitive to reorderings the
definition declares irrelevant."""

import random

from hypothesis import given, settings
from equivalence import equivalent
from hypothesis import strategies as st

from repro.si import Schedule, TxnSpec
from repro.si.schedule import BEGIN, COMMIT

N_OBJECTS = 4


@st.composite
def schedule_pairs(draw):
    """Two random SI-schedules over the same transactions."""
    rng = random.Random(draw(st.integers(0, 100_000)))
    n = draw(st.integers(min_value=2, max_value=5))
    specs = []
    for i in range(n):
        writes = frozenset(rng.sample(range(N_OBJECTS), rng.randint(0, 2)))
        reads = frozenset(rng.sample(range(N_OBJECTS), rng.randint(0, 2)))
        specs.append(TxnSpec(str(i), readset=reads, writeset=writes))

    def build():
        events = []
        open_txns = []
        order = specs[:]
        rng.shuffle(order)
        for spec in order:
            for other in list(open_txns):
                if spec.writeset & other.writeset:
                    events.append((COMMIT, other.tid))
                    open_txns.remove(other)
            events.append((BEGIN, spec.tid))
            open_txns.append(spec)
            if rng.random() < 0.5 and open_txns:
                victim = rng.choice(open_txns)
                events.append((COMMIT, victim.tid))
                open_txns.remove(victim)
        rng.shuffle(open_txns)
        events.extend((COMMIT, s.tid) for s in open_txns)
        return Schedule({s.tid: s for s in specs}, events)

    return build(), build()


@settings(max_examples=100, deadline=None)
@given(schedule_pairs())
def test_reflexive(pair):
    s1, _s2 = pair
    assert equivalent(s1, s1)


@settings(max_examples=100, deadline=None)
@given(schedule_pairs())
def test_symmetric(pair):
    s1, s2 = pair
    assert equivalent(s1, s2) == equivalent(s2, s1)


@st.composite
def schedule_triples(draw):
    s1, s2 = draw(schedule_pairs())
    # a third schedule over the same transactions: shuffle the pair's
    # builder again by regenerating from the same specs via s1's txns
    rng = random.Random(draw(st.integers(0, 100_000)))
    specs = list(s1.transactions.values())
    events = []
    open_txns = []
    order = specs[:]
    rng.shuffle(order)
    for spec in order:
        for other in list(open_txns):
            if spec.writeset & other.writeset:
                events.append((COMMIT, other.tid))
                open_txns.remove(other)
        events.append((BEGIN, spec.tid))
        open_txns.append(spec)
        if rng.random() < 0.5 and open_txns:
            victim = rng.choice(open_txns)
            events.append((COMMIT, victim.tid))
            open_txns.remove(victim)
    rng.shuffle(open_txns)
    events.extend((COMMIT, s.tid) for s in open_txns)
    s3 = Schedule({s.tid: s for s in specs}, events)
    return s1, s2, s3


@settings(max_examples=100, deadline=None)
@given(schedule_triples())
def test_transitive(triple):
    s1, s2, s3 = triple
    if equivalent(s1, s2) and equivalent(s2, s3):
        assert equivalent(s1, s3)


@settings(max_examples=100, deadline=None)
@given(schedule_pairs())
def test_begin_begin_swap_is_always_irrelevant(pair):
    """'The order of two begin statements never matters.'"""
    s1, _ = pair
    events = list(s1.events)
    begin_positions = [
        i for i, (kind, _tid) in enumerate(events) if kind == BEGIN
    ]
    for i, j in zip(begin_positions, begin_positions[1:]):
        if j == i + 1:  # adjacent begins: swapping them changes nothing
            swapped = list(events)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            s_swapped = Schedule(s1.transactions, swapped)
            assert s_swapped.is_si_schedule()
            assert equivalent(s1, s_swapped)


@settings(max_examples=100, deadline=None)
@given(schedule_pairs())
def test_equivalence_iff_matching_constraints(pair):
    """Cross-check `equivalent` against a direct restatement of Def. 2."""
    s1, s2 = pair
    tids = list(s1.transactions)

    def direct():
        for i, a in enumerate(tids):
            for b in tids:
                if a == b:
                    continue
                spec_a, spec_b = s1.transactions[a], s1.transactions[b]
                if b > a and spec_a.writeset & spec_b.writeset:
                    if s1.before((COMMIT, a), (COMMIT, b)) != s2.before(
                        (COMMIT, a), (COMMIT, b)
                    ):
                        return False
                if spec_a.writeset & spec_b.readset:
                    if s1.before((COMMIT, a), (BEGIN, b)) != s2.before(
                        (COMMIT, a), (BEGIN, b)
                    ):
                        return False
        return True

    assert equivalent(s1, s2) == direct()
