"""Property tests for the Definition-3 checker.

Soundness round trip: take a random *global* SI-schedule S as ground
truth, derive each replica's local schedule from it exactly as a correct
ROWA system would (same ww commit order everywhere; remote transactions
with empty readsets; local reads-from positions consistent with S) — the
checker must accept.  Conversely, swapping the commit order of a
ww-conflicting pair at one replica must be rejected.

Equivalence: on random multi-replica schedules (correct projections,
then perturbed) and on seeded anomalies, the keyed audit and the
pairwise oracle (``pairwise_oracle.py``) give the same verdict and the
same violation kind, and the same witness when the schedules are valid.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pairwise_oracle import pairwise_check

from repro.si import KeyedAudit, Schedule, TxnSpec, check_one_copy_si
from repro.si.schedule import BEGIN, COMMIT

N_OBJECTS = 5
REPLICAS = ("R0", "R1", "R2")


@st.composite
def global_executions(draw, max_txns=6, max_writes=2):
    """A random valid global execution: specs + a global SI-schedule."""
    n_txns = draw(st.integers(min_value=2, max_value=max_txns))
    rng = random.Random(draw(st.integers(0, 10_000)))
    specs = []
    for i in range(n_txns):
        writes = frozenset(
            rng.sample(range(N_OBJECTS), rng.randint(0, max_writes))
        )
        reads = frozenset(rng.sample(range(N_OBJECTS), rng.randint(0, 3)))
        specs.append(TxnSpec(str(i), readset=reads, writeset=writes))
    schedule = random_si_schedule(specs, rng)
    assert schedule.is_si_schedule()
    locality = {s.tid: rng.choice(REPLICAS) for s in specs}
    return specs, schedule, locality, rng


def random_si_schedule(specs, rng):
    """A concurrent SI-schedule built greedily: a transaction may stay
    open across others' commits as long as no two open transactions
    ww-conflict (exactly Def. 1's requirement)."""
    events = []
    open_txns = []
    for spec in specs:
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
    for spec in open_txns:
        events.append((COMMIT, spec.tid))
    return Schedule({s.tid: s for s in specs}, events)


def derive_local(specs, schedule, locality, replica):
    """Project the global schedule onto one replica (correct ROWA)."""
    transactions = {}
    events = []
    for kind, tid in schedule.events:
        spec = next(s for s in specs if s.tid == tid)
        is_local = locality[tid] == replica
        if not spec.writeset and not is_local:
            continue  # read-only transactions exist only at home
        transactions[tid] = TxnSpec(
            tid,
            spec.readset if is_local else frozenset(),
            spec.writeset,
        )
        events.append((kind, tid))
    return Schedule(transactions, events)


@settings(max_examples=80, deadline=None)
@given(global_executions())
def test_correct_rowa_projection_always_accepted(execution):
    specs, schedule, locality, _rng = execution
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    report = check_one_copy_si(schedules, locality)
    assert report.ok, [str(v) for v in report.violations]
    assert report.witness is not None
    assert report.witness.is_si_schedule()


@settings(max_examples=80, deadline=None)
@given(global_executions())
def test_ww_order_swap_at_one_replica_rejected(execution):
    specs, schedule, locality, rng = execution
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    # find a ww-conflicting pair present at R1 and swap their commits
    target = schedules["R1"]
    pair = None
    tids = list(target.transactions)
    for i, a in enumerate(tids):
        for b in tids[i + 1:]:
            if target.transactions[a].writeset & target.transactions[b].writeset:
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        return  # nothing to corrupt in this example
    a, b = pair
    events = list(target.events)
    ia, ib = events.index((COMMIT, a)), events.index((COMMIT, b))
    events[ia], events[ib] = events[ib], events[ia]
    # swapping commits may also break Def. 1 locally; either way the
    # checker must not report success
    schedules["R1"] = Schedule(target.transactions, events)
    report = check_one_copy_si(schedules, locality)
    assert not report.ok


@settings(max_examples=60, deadline=None)
@given(global_executions())
def test_witness_is_equivalent_projection_per_replica(execution):
    """The produced witness must order ww commits exactly as the locals."""
    specs, schedule, locality, _rng = execution
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    report = check_one_copy_si(schedules, locality)
    assert report.ok
    witness = report.witness
    for replica, local in schedules.items():
        tids = [t for t, s in local.transactions.items() if s.writeset]
        for i, a in enumerate(tids):
            for b in tids[i + 1:]:
                if not local.transactions[a].writeset & local.transactions[b].writeset:
                    continue
                assert witness.before((COMMIT, a), (COMMIT, b)) == local.before(
                    (COMMIT, a), (COMMIT, b)
                )


# ---------------------------------------------------------------------------
# The keyed audit against the pairwise oracle
# ---------------------------------------------------------------------------


def assert_agree(schedules, locality):
    keyed = check_one_copy_si(schedules, locality)
    oracle = pairwise_check(schedules, locality)
    assert keyed.ok == oracle.ok, (str(keyed), str(oracle))
    assert {v.rule for v in keyed.violations} == {v.rule for v in oracle.violations}
    if oracle.ok:
        assert keyed.witness.events == oracle.witness.events
        assert keyed.witness.transactions == oracle.witness.transactions
    return keyed


def reorder_unrelated(local, rng, steps=40):
    """Random adjacent swaps of events of transactions that write no
    common key: every ww order and Def. 1 still hold, but what a local
    reader sees can change."""
    events = list(local.events)
    for _ in range(steps if len(events) > 1 else 0):
        i = rng.randrange(len(events) - 1)
        first, second = events[i][1], events[i + 1][1]
        spec_a, spec_b = local.transactions[first], local.transactions[second]
        if first != second and not spec_a.writeset & spec_b.writeset:
            events[i], events[i + 1] = events[i + 1], events[i]
    return Schedule(local.transactions, events)


@st.composite
def perturbed_executions(draw):
    """Correct ROWA projections of random global executions — one shared
    by most replicas, another of the same transactions for the rest —
    with unrelated events reordered at some replicas, then up to three
    perturbations at random replicas: exchange the commits of two
    updates, move one transaction's begin and commit to new places
    (mostly keeping begin before commit), or drop it there."""
    specs, schedule, locality, rng = draw(global_executions(max_txns=8, max_writes=1))
    schedules = {}
    for name in REPLICAS:
        if rng.random() < 0.2:
            schedule = random_si_schedule(rng.sample(specs, len(specs)), rng)
        local = derive_local(specs, schedule, locality, name)
        schedules[name] = reorder_unrelated(local, rng) if rng.random() < 0.6 else local
    for _ in range(draw(st.integers(0, 3))):
        name = rng.choice(REPLICAS)
        local = schedules[name]
        transactions = dict(local.transactions)
        if not transactions:
            continue
        tid = rng.choice(list(transactions))
        events = [event for event in local.events if event[1] != tid]
        roll = rng.random()
        updates = [t for t, spec in transactions.items() if spec.writeset]
        if roll < 0.5 and len(updates) > 1:
            events = list(local.events)
            a, b = (events.index((COMMIT, t)) for t in rng.sample(updates, 2))
            events[a], events[b] = events[b], events[a]
        elif roll < 0.9:
            begin, commit = sorted(rng.choices(range(len(events) + 1), k=2))
            if rng.random() < 0.1:
                begin, commit = commit, begin
            events.insert(commit, (COMMIT, tid))
            events.insert(begin, (BEGIN, tid))
        else:
            del transactions[tid]
        schedules[name] = Schedule(transactions, events)
    return schedules, locality


@st.composite
def observed_orders(draw):
    """Writers of distinct keys committed in an independent random order
    at each replica, and local readers of random keys beginning at random
    points: Def. 3 holds exactly when every reader's observation fits one
    global order (the §4.3.2 shape, generalised)."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    writers = [TxnSpec(f"w{i}", frozenset(), frozenset({i})) for i in range(rng.randint(2, 4))]
    locality = {writer.tid: rng.choice(REPLICAS) for writer in writers}
    schedules = {}
    for name in REPLICAS:
        events = [
            (kind, writer.tid)
            for writer in rng.sample(writers, len(writers))
            for kind in (BEGIN, COMMIT)
        ]
        transactions = {writer.tid: writer for writer in writers}
        for index in range(rng.randint(1, 3)):
            keys = rng.sample(range(len(writers)), rng.randint(1, len(writers)))
            reader = TxnSpec(f"q{name}.{index}", frozenset(keys), frozenset())
            at = rng.randint(0, len(events))
            events[at:at] = [(BEGIN, reader.tid), (COMMIT, reader.tid)]
            transactions[reader.tid] = reader
            locality[reader.tid] = name
        schedules[name] = Schedule(transactions, events)
    return schedules, locality


@settings(max_examples=300, deadline=None)
@given(st.one_of(perturbed_executions(), observed_orders()))
def test_keyed_audit_agrees_with_the_pairwise_oracle(execution):
    assert_agree(*execution)


def spec(tid, rs=(), ws=()):
    return TxnSpec(tid, frozenset(rs), frozenset(ws))


def local_and_remote(tid, rs=(), ws=()):
    return spec(tid, rs, ws), spec(tid, (), ws)


def seeded():
    """(name, schedules, locality, expected rule or None)."""
    i_k, i_m = local_and_remote("i", rs={"x"}, ws={"x"})
    j_m, j_k = local_and_remote("j", rs={"y"}, ws={"y"})
    a, b = spec("a", rs={"x", "y"}), spec("b", rs={"x", "y"})
    yield (
        "432-anomaly",
        {
            "Rk": Schedule.from_string("bi bj ci ba cj ca", [i_k, j_k, a]),
            "Rm": Schedule.from_string("bj bi cj bb ci cb", [i_m, j_m, b]),
        },
        {"i": "Rk", "j": "Rm", "a": "Rk", "b": "Rm"},
        "1-copy-si",
    )
    one, one_r = local_and_remote("1", rs={"x"}, ws={"x"})
    two, two_r = local_and_remote("2", rs={"x"}, ws={"x"})
    yield (
        "lost-update",
        {
            "R0": Schedule.from_string("b1 c1 b2 c2", [one, two_r]),
            "R1": Schedule.from_string("b2 b1 c1 c2", [one_r, two]),
        },
        {"1": "R0", "2": "R1"},
        "local-si",
    )
    yield (
        "ww-order-disagreement",
        {
            "R0": Schedule.from_string("b1 c1 b2 c2", [one, two_r]),
            "R1": Schedule.from_string("b2 c2 b1 c1", [one_r, two]),
        },
        {"1": "R0", "2": "R1"},
        "ww-order",
    )
    sx, sx_r = local_and_remote("1", rs={"x", "y"}, ws={"x"})
    sy, sy_r = local_and_remote("2", rs={"x", "y"}, ws={"y"})
    yield (
        "write-skew",
        {
            "R0": Schedule.from_string("b1 b2 c2 c1", [sx, sy_r]),
            "R1": Schedule.from_string("b2 b1 c1 c2", [sx_r, sy]),
        },
        {"1": "R0", "2": "R1"},
        None,
    )
    yield (
        "update-missing-at-a-replica",
        {
            "R0": Schedule.from_string("b1 c1 b2 c2", [one, two_r]),
            "R1": Schedule.from_string("b2 c2", [two]),
        },
        {"1": "R0", "2": "R1"},
        "rowa",
    )
    w, w_r = local_and_remote("w", rs=(), ws={"x"})
    q = spec("q", rs={"x"})
    later, later_r = local_and_remote("v", rs=(), ws={"x"})
    yield (
        "reader-of-a-replayed-prefix",
        {
            # R1's history starts after a log replay of w: the prefix is
            # a remote writes-only transaction ahead of everything else
            "R0": Schedule.from_string("bw cw bv cv", [w, later]),
            "R1": Schedule.from_string("bw cw bq bv cv cq", [w_r, later_r, q]),
        },
        {"w": "R0", "v": "R0", "q": "R1"},
        None,
    )


@pytest.mark.parametrize(
    "schedules,locality,rule", [case[1:] for case in seeded()],
    ids=[case[0] for case in seeded()],
)
def test_seeded_anomalies_agree_with_the_pairwise_oracle(schedules, locality, rule):
    report = assert_agree(schedules, locality)
    assert report.ok == (rule is None)
    if rule is not None:
        assert {v.rule for v in report.violations} == {rule}


def test_hot_key_graph_is_linear():
    """N updates of one hot key and M local readers of it: the keyed
    graph has at most (N+M) + 2(N-1) + 2M edges, where the pairwise
    derivation adds N(N-1) ww edges alone."""
    n, m = 60, 90
    audit = KeyedAudit()
    audit.watch("R0")
    audit.watch("R1")
    for i in range(n):
        gid = f"w{i}"
        for name, remote in (("R0", False), ("R1", True)):
            audit.feed(name, ("begin", gid, None, remote))
            audit.feed(name, ("commit", gid, None, (), {"hot"}))
        for j in range(i * m // n, (i + 1) * m // n):
            reader = f"q{j}"
            audit.feed("R0", ("begin", reader, None, False))
            audit.feed("R0", ("commit", reader, None, {"hot"}, ()))
    report = audit.report()
    assert report.ok
    edges = sum(len(targets) for targets in audit.graph._succ.values())
    assert edges <= (n + m) + 2 * (n - 1) + 2 * m < n * (n - 1)
