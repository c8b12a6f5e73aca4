"""A fully partitioned variant of the §6.3 micro workload.

The update-intensive workload of Fig. 7, reshaped for a sharded
deployment: each replication group owns ``tables_per_group`` tables
(explicit placement), and every **update** transaction picks one group
and touches only that group's tables — so update certification load
splits cleanly across groups and aggregate update capacity should scale
near-linearly with the group count.
"""

from __future__ import annotations

from repro.workloads.spec import TxnTemplate, Workload

ROWS_PER_TABLE = 200
TABLES_PER_TXN = 3
UPDATES_PER_TXN = 10


def table_name(group: int, index: int) -> str:
    return f"part{group}_{index}"


def make_table_map(n_groups: int, tables_per_group: int = 4) -> dict[str, int]:
    """The explicit placement: group ``g`` owns ``part{g}_*``."""
    return {
        table_name(group, index): group
        for group in range(n_groups)
        for index in range(tables_per_group)
    }


def make_partitioned_workload(
    n_groups: int,
    tables_per_group: int = 4,
    rows_per_table: int = ROWS_PER_TABLE,
) -> Workload:
    """Build the workload (pair it with ``make_table_map`` for placement)."""
    if tables_per_group < TABLES_PER_TXN:
        raise ValueError(
            f"need at least {TABLES_PER_TXN} tables per group, "
            f"got {tables_per_group}"
        )
    names = [
        table_name(group, index)
        for group in range(n_groups)
        for index in range(tables_per_group)
    ]
    ddl = [f"CREATE TABLE {name} (k INT PRIMARY KEY, v INT)" for name in names]
    tables = {
        name: [{"k": k, "v": 0} for k in range(1, rows_per_table + 1)]
        for name in names
    }

    def _update_params(rng):
        group = rng.randrange(n_groups)
        chosen = rng.sample(range(tables_per_group), TABLES_PER_TXN)
        picks = []
        seen = set()
        while len(picks) < UPDATES_PER_TXN:
            index = rng.choice(chosen)
            key = rng.randint(1, rows_per_table)
            if (index, key) in seen:
                continue
            seen.add((index, key))
            picks.append((index, key, rng.randint(0, 10_000)))
        return (group, tuple(sorted(chosen)), tuple(picks))

    def _update_stmts(params):
        group, _chosen, picks = params
        return [
            (
                f"UPDATE {table_name(group, index)} SET v = ? WHERE k = ?",
                (value, key),
            )
            for (index, key, value) in picks
        ]

    update = TxnTemplate(
        "partitioned_update",
        tuple(names),
        _update_params,
        _update_stmts,
        lock_tables=lambda params: tuple(
            table_name(params[0], index) for index in params[1]
        ),
    )
    return Workload(
        name=f"partitioned-micro-x{n_groups}",
        ddl=ddl,
        tables=tables,
        mix=[(update, 1.0)],
    )
