"""Micro-benchmarks of the hot middleware/engine paths (real wall-clock).

These measure the Python implementation itself (ops/sec of validation,
writeset handling, parsing, point statements) rather than simulated time.
"""

import itertools
import json
import pathlib
import random
import time

from repro.core._reference import ReferenceToCommitQueue
from repro.core.tocommit import Entry, ToCommitQueue
from repro.core.validation import Certifier, WsRecord
from repro.sim import Simulator
from repro.sql.parser import parse, parse_cached
from repro.storage import Database
from repro.storage.writeset import UPDATE, WriteOp, WriteSet
from repro.testing import run_txn


def _ws(keys):
    return WriteSet([WriteOp("t", k, UPDATE, {"k": k, "v": 0}) for k in keys])


def test_certifier_validation_throughput(benchmark):
    rng = random.Random(1)
    counter = itertools.count()

    def setup():
        certifier = Certifier()
        records = [
            WsRecord(f"g{next(counter)}", _ws(rng.sample(range(10_000), 10)), cert=i)
            for i in range(1000)
        ]
        return (certifier, records), {}

    def validate_batch(certifier, records):
        for record in records:
            certifier.validate(record)
        return certifier.validated

    result = benchmark.pedantic(validate_batch, setup=setup, rounds=20)
    assert result > 0


RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def _queue_entry(rng, gid):
    record = WsRecord(gid, _ws(rng.sample(range(4096), 4)), cert=0)
    record.tid = 0
    return Entry(record)


def _dispatch_cost_us(queue_factory, depth, iters=2000, repeats=5):
    """Per-transaction queue cost (append + blocking_predecessor +
    overlaps + remove) with ``depth`` bystander entries resident, in
    microseconds — best of ``repeats`` to shave timer noise."""
    rng = random.Random(depth)
    best = None
    for _ in range(repeats):
        queue = queue_factory()
        for i in range(depth):
            queue.append(_queue_entry(rng, f"resident-{i}"))
        probes = [_queue_entry(rng, f"probe-{i}") for i in range(iters)]
        probe_ws = _ws(rng.sample(range(4096), 4))
        start = time.perf_counter()
        for entry in probes:
            queue.append(entry)
            queue.blocking_predecessor(entry, installed_ok=True)
            queue.overlaps(probe_ws)
            queue.remove(entry)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best / iters * 1e6


def test_queue_dispatch_cost_flat_in_depth(benchmark):
    """The key-indexed to-commit queue's per-transaction dispatch cost
    must be ~flat in queue depth (the linear-scan form it replaced grows
    with every resident entry).  Exports results/conflict_index.json."""
    depths = [1, 32, 256]
    indexed = {d: _dispatch_cost_us(ToCommitQueue, d) for d in depths}
    reference = {d: _dispatch_cost_us(ReferenceToCommitQueue, d) for d in depths}

    RESULTS.mkdir(exist_ok=True)
    report = {
        "unit": "microseconds per dispatch cycle",
        "cycle": "append + blocking_predecessor + overlaps + remove",
        "indexed_us": {str(d): round(indexed[d], 3) for d in depths},
        "reference_us": {str(d): round(reference[d], 3) for d in depths},
        "indexed_flatness_256_over_1": round(indexed[256] / indexed[1], 3),
        "reference_growth_256_over_1": round(reference[256] / reference[1], 3),
    }
    (RESULTS / "conflict_index.json").write_text(json.dumps(report, indent=2))
    benchmark.extra_info.update(report)

    rng = random.Random(99)
    deep = ToCommitQueue()
    for i in range(256):
        deep.append(_queue_entry(rng, f"resident-{i}"))
    probe_ws = _ws(rng.sample(range(4096), 4))
    counter = itertools.count()

    def one_dispatch():
        entry = _queue_entry(rng, f"p{next(counter)}")
        deep.append(entry)
        deep.blocking_predecessor(entry, installed_ok=True)
        deep.overlaps(probe_ws)
        deep.remove(entry)

    benchmark(one_dispatch)
    # near-flat: depth 256 costs at most 3x depth 1 (timer noise margin);
    # the reference scan is far past that by 256
    assert indexed[256] <= 3 * indexed[1], report
    assert reference[256] > 3 * reference[1], report
    assert reference[256] > indexed[256], report


def test_writeset_conflict_check(benchmark):
    rng = random.Random(2)
    ws_a = _ws(rng.sample(range(100_000), 100))
    sets = [_ws(rng.sample(range(100_000), 100)) for _ in range(100)]

    def check():
        return sum(1 for other in sets if ws_a.conflicts_with(other))

    benchmark(check)


def test_sql_parse_speed(benchmark):
    sql = (
        "SELECT i.i_title, i.i_cost, a.a_lname FROM item i "
        "JOIN author a ON i.i_a_id = a.a_id "
        "WHERE i.i_subject = ? AND i.i_cost BETWEEN 5 AND 50 "
        "ORDER BY i.i_title LIMIT 20"
    )
    benchmark(parse, sql)


def test_sql_parse_cached_speed(benchmark):
    sql = "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?"
    parse_cached(sql)
    benchmark(parse_cached, sql)


def test_engine_point_update_speed(benchmark):
    sim = Simulator()
    db = Database(sim, name="bench")
    db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    db.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 1001)])
    counter = itertools.count()

    def one_txn():
        key = (next(counter) % 1000) + 1
        run_txn(sim, db, [("UPDATE kv SET v = v + 1 WHERE k = ?", (key,))])

    benchmark(one_txn)


def test_engine_indexed_select_speed(benchmark):
    sim = Simulator()
    db = Database(sim, name="bench")
    db.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, grp INT, v INT)")
    db.run_ddl("CREATE INDEX i_grp ON kv (grp)")
    db.bulk_load(
        "kv", [{"k": k, "grp": k % 50, "v": k} for k in range(1, 2001)]
    )
    from repro.testing import query

    def one_query():
        return query(sim, db, "SELECT k, v FROM kv WHERE grp = ? ORDER BY k", (7,))

    rows = benchmark(one_query)
    assert len(rows) == 40


def test_writeset_apply_speed(benchmark):
    sim = Simulator()
    source = Database(sim, name="src")
    source.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    source.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 101)])
    txn = source.begin()
    sim.run_process(source.execute(txn, "UPDATE kv SET v = v + 1"))
    writeset = source.get_writeset(txn)
    source.abort(txn)

    target = Database(sim, name="dst")
    target.run_ddl("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    target.bulk_load("kv", [{"k": k, "v": 0} for k in range(1, 101)])

    def apply_once():
        def body():
            rtxn = target.begin(remote=True)
            yield from target.apply_writeset(rtxn, writeset)
            target.abort(rtxn)  # keep the target reusable

        sim.run_process(body())

    benchmark(apply_once)


# ---------------------------------------------------------------------------
# Canonical point for the unified suite runner (repro.bench.suite)
# ---------------------------------------------------------------------------


def canonical_point(quick: bool = True) -> dict:
    """Micro-ops anchor: dispatch cost flatness of the key-indexed queue.

    These are real wall-clock numbers — machine-dependent, so the suite
    holds only the depth-flatness *ratio* to a meaningful band and gives
    the raw microsecond figures very wide ones.
    """
    iters, repeats = (500, 3) if quick else (2000, 5)
    depths = (1, 256)
    indexed = {
        d: _dispatch_cost_us(ToCommitQueue, d, iters=iters, repeats=repeats)
        for d in depths
    }
    return {
        "config": {
            "iters": iters,
            "repeats": repeats,
            "depths": list(depths),
            "wall_clock": True,
            "seed": None,
        },
        "metrics": {
            "indexed_us_depth1": indexed[1],
            "indexed_us_depth256": indexed[256],
            "indexed_flatness_256_over_1": indexed[256] / indexed[1],
        },
        "profile": None,
    }
