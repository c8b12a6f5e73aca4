"""Statement execution against the MVCC engine.

The executor is a simulation coroutine because write statements may block
on row locks.  Reads are pure snapshot reads and never block (the whole
point of SI, §1).

Access paths: point lookup on primary key equality, index lookup on an
indexed column equality/IN, else full scan; joins are nested-loop with an
index/pk inner lookup when available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.plan import Plan, RowProbe, build_plan, column_matcher, plan_for


@dataclass
class Result:
    """Outcome of one statement."""

    kind: str
    rows: Optional[list[dict]] = None  # None for DML/DDL
    columns: tuple = ()
    rowcount: int = 0  # returned rows for SELECT, affected rows for DML
    rows_examined: int = 0
    rows_written: int = 0
    scalars: list = field(default_factory=list)

    def scalar(self) -> Any:
        """First column of the first row (aggregates, point reads)."""
        if not self.rows:
            return None
        first = self.rows[0]
        return first[self.columns[0]] if self.columns else next(iter(first.values()))


def execute(db, txn, statement, params: tuple) -> Generator[Any, Any, Result]:
    """Dispatch one parsed statement.

    DML runs from the statement's plan (:mod:`repro.sql.plan`).  Every
    ``?`` must have a value before any row is read, whichever access
    path the statement takes.
    """
    examined_before = txn.rows_examined
    kind = statement.kind
    if kind == "create_table":
        result = _create_table(db, statement)
    elif kind == "create_index":
        result = _create_index(db, statement)
    elif kind in ("select", "insert", "update", "delete"):
        table = db.catalog.table(statement.table)
        plan = plan_for(statement, table.schema)
        if len(params) < plan.n_params:
            raise SQLError(
                f"statement has parameter ?{len(params)} but only "
                f"{len(params)} values were supplied"
            )
        if plan.binds_subqueries:
            statement = _bind_statement_subqueries(db, txn, statement, params)
            plan = build_plan(statement, table.schema)
        if kind == "select":
            result = _select(db, txn, table, statement, plan, params)
        elif kind == "insert":
            result = yield from _insert(db, txn, table, plan, params)
        elif kind == "update":
            result = yield from _update(db, txn, table, plan, params)
        else:
            result = yield from _delete(db, txn, table, plan, params)
    else:
        raise SQLError(f"unsupported statement kind {kind!r}")
    result.rows_examined = txn.rows_examined - examined_before
    return result


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------


def _create_table(db, statement: ast.CreateTable) -> Result:
    from repro.storage.catalog import ColumnDef, TableSchema

    schema = TableSchema(
        name=statement.table,
        columns=tuple(
            ColumnDef(
                c.name,
                c.type,
                primary_key=c.primary_key,
                not_null=c.not_null,
                references=c.references,
            )
            for c in statement.columns
        ),
    )
    db.create_table(schema)
    return Result(kind="create_table")


def _create_index(db, statement: ast.CreateIndex) -> Result:
    db.create_index(statement.table, statement.column)
    return Result(kind="create_index")


# ---------------------------------------------------------------------------
# Uncorrelated subqueries: bound to values once per statement
# ---------------------------------------------------------------------------


def _bind_statement_subqueries(db, txn, statement, params: tuple):
    """Replace ``(SELECT ...)`` expressions in WHERE clauses by their
    values.  Subqueries are uncorrelated: evaluated once, on the same
    snapshot as the enclosing statement."""
    import dataclasses

    if statement.kind not in ("select", "update", "delete"):
        return statement
    if getattr(statement, "where", None) is None:
        return statement
    bound = _bind_expr(db, txn, statement.where, params)
    if bound is statement.where:
        return statement
    return dataclasses.replace(statement, where=bound)


def _bind_expr(db, txn, expr: Any, params: tuple) -> Any:
    if isinstance(expr, ast.Subquery):
        values = _run_subquery(db, txn, expr.select, params)
        if len(values) > 1:
            raise SQLError("scalar subquery returned more than one row")
        return ast.Literal(values[0] if values else None)
    if isinstance(expr, ast.InList):
        if len(expr.items) == 1 and isinstance(expr.items[0], ast.Subquery):
            values = _run_subquery(db, txn, expr.items[0].select, params)
            return ast.InList(
                expr.expr, tuple(ast.Literal(v) for v in values), expr.negated
            )
        return expr
    if isinstance(expr, ast.BinOp):
        left = _bind_expr(db, txn, expr.left, params)
        right = _bind_expr(db, txn, expr.right, params)
        if left is expr.left and right is expr.right:
            return expr
        return ast.BinOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = _bind_expr(db, txn, expr.operand, params)
        if operand is expr.operand:
            return expr
        return ast.UnaryOp(expr.op, operand)
    if isinstance(expr, ast.Between):
        low = _bind_expr(db, txn, expr.low, params)
        high = _bind_expr(db, txn, expr.high, params)
        inner = _bind_expr(db, txn, expr.expr, params)
        if low is expr.low and high is expr.high and inner is expr.expr:
            return expr
        return ast.Between(inner, low, high, expr.negated)
    return expr


def _run_subquery(db, txn, select: "ast.Select", params: tuple) -> list:
    """Run an uncorrelated single-column subquery; returns its values."""
    bound = _bind_statement_subqueries(db, txn, select, params)
    table = db.catalog.table(bound.table)
    result = _select(db, txn, table, bound, build_plan(bound, table.schema), params)
    if len(result.columns) != 1:
        raise SQLError("subquery must return exactly one column")
    column = result.columns[0]
    return [row[column] for row in result.rows]


# ---------------------------------------------------------------------------
# Row sourcing (shared by SELECT / UPDATE / DELETE)
# ---------------------------------------------------------------------------


def choose_path(table, plan: Plan, params: tuple) -> tuple:
    """The access path ``_candidate_rows`` will take (EXPLAIN surface).

    Returns ``("pk", n_keys)``, ``("index", column, n_keys)``, or
    ``("scan",)``.
    """
    lookups = plan.lookups(params)
    if plan.pk_column in lookups:
        return ("pk", len(set(lookups[plan.pk_column])))
    for column, values in lookups.items():
        if all(table.index_candidates(column, v) is not None for v in values):
            return ("index", column, len(values))
    return ("scan",)


def _candidate_rows(db, txn, table, plan: Plan, params, locating=False):
    """Yield (pk, values) via the best access path for the plan's WHERE.

    ``locating`` (pk path only) marks the reads as target lookups rather
    than value dependencies — see :meth:`Database.read_row`.  Index and
    scan paths ignore it: rows they surface were chosen by examining
    values, so they stay ordinary (dependent) reads.
    """
    lookups = plan.lookups(params)
    pks = lookups.get(plan.pk_column)
    if pks is not None:
        seen = set()
        for pk in pks:
            if pk in seen:
                continue
            seen.add(pk)
            txn.rows_examined += 1
            values = db.read_row(txn, table, pk, locating=locating)
            if values is not None:
                yield pk, values
        # Rows this txn inserted are reachable via read_row above already.
        return
    for column, values in lookups.items():
        candidates: set = set()
        usable = True
        for value in values:
            pks = table.index_candidates(column, value)
            if pks is None:
                usable = False
                break
            candidates.update(pks)
        if usable:
            # Own inserted rows may not be indexed yet; add them.
            for key, op in txn.writes.items():
                if key[0] == table.name and op.values is not None:
                    candidates.add(key[1])
            yield from db.scan(txn, table, candidates=sorted(candidates, key=repr))
            return
    yield from db.scan(txn, table)


def _matches(db, txn, table, plan: Plan, params) -> list:
    """Materialise the (pk, values) pairs of one table that satisfy WHERE.

    A covering UPDATE (``plan.covers``) locates its rows: a pk lookup is
    then no value dependency (see :meth:`Database.read_row`), and its
    WHERE reads a :class:`RowProbe`, so that a residual predicate that
    examines a non-pk column value demotes that row back to a dependent
    read: the match decision then hinges on row content, so the write is
    not blind.  Its pairs are (pk, probe): the SET closures go on reading
    the probe of the row's WHERE.
    """
    rows = _candidate_rows(db, txn, table, plan, params, locating=plan.covers)
    where = plan.where
    if not plan.covers:
        if where is None:
            return list(rows)
        return [(pk, values) for pk, values in rows if where(values, params)]
    matches = []
    for pk, values in rows:
        probe = RowProbe(values)
        if where is None or where(probe, params):
            matches.append((pk, probe))
        elif probe.read:
            txn.dependent_reads.add((table.name, pk))
    return matches


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


class _JoinedRow:
    """Namespace mapping (alias or table) -> row tuple for joined scans;
    ``layout`` maps the same keys to their schema's column positions
    (``TableSchema.positions``), one dict shared by every row of one
    join step.

    Calling it looks a column up, which is how the plan's closures read
    it (the default column hook of ``compile_expr``)."""

    __slots__ = ("frames", "layout")

    def __init__(self, frames: dict[str, tuple], layout: dict[str, dict]):
        self.frames = frames
        self.layout = layout

    def __call__(self, col: ast.Column) -> Any:
        if col.table is not None:
            frame = self.frames.get(col.table)
            if frame is None:
                raise SQLError(f"unknown table qualifier {col.table!r}")
            position = self.layout[col.table].get(col.name)
            if position is None:
                raise SQLError(f"unknown column {col.display!r}")
            return frame[position]
        hits = []
        layout = self.layout
        for key, frame in self.frames.items():
            position = layout[key].get(col.name)
            if position is not None:
                hits.append(frame[position])
        if not hits:
            raise SQLError(f"unknown column {col.name!r}")
        if len(hits) > 1:
            raise SQLError(f"ambiguous column {col.name!r}")
        return hits[0]


def _select(db, txn, table, statement: ast.Select, plan: Plan, params: tuple) -> Result:
    """A single-table SELECT works on the stored row tuples, a join on
    ``_JoinedRow`` objects; the plan's closures read either."""
    if not statement.joins:
        rows = [values for _pk, values in _matches(db, txn, table, plan, params)]
    else:
        base_key = statement.alias or statement.table
        layout = {base_key: table.schema.positions}
        # Equality conjuncts on the base table narrow the scan; they give
        # a superset of the matches, and the full WHERE filters after the
        # joins.
        rows = [
            _JoinedRow({base_key: values}, layout)
            for _pk, values in _candidate_rows(db, txn, table, plan, params)
        ]
        for join in statement.joins:
            inner = db.catalog.table(join.table)
            layout = {**layout, join.alias or join.table: inner.schema.positions}
            rows = _apply_join(db, txn, rows, join, inner, layout)
        if plan.where is not None:
            rows = [row for row in rows if plan.where(row, params)]

    if plan.fold is not None:
        return _aggregate(statement, plan, rows, params)

    if statement.distinct:
        # SQL semantics: project, dedupe, then ORDER BY (on output
        # columns) and LIMIT.
        columns, rows = _project(statement, plan, table, rows, params)
        seen = set()
        unique = []
        for row in rows:
            key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        rows = unique
        for item in reversed(statement.order_by):
            name = item.column.name
            if rows and name not in rows[0]:
                raise SQLError(
                    f"ORDER BY column {name!r} must be in the DISTINCT output"
                )
            rows = _ordered(rows, [row[name] for row in rows], item.descending)
        if plan.limit is not None:
            rows = rows[: int(plan.limit(None, params))]
        return Result(kind="select", rows=rows, columns=columns, rowcount=len(rows))

    for fn, descending in reversed(plan.order):
        rows = _ordered(rows, [fn(row, params) for row in rows], descending)
    if plan.limit is not None:
        rows = rows[: int(plan.limit(None, params))]

    columns, rows = _project(statement, plan, table, rows, params)
    return Result(kind="select", rows=rows, columns=columns, rowcount=len(rows))


def _ordered(rows: list, keys: list, descending: bool) -> list:
    """``rows`` stably sorted by ``keys`` (one per row) as ORDER BY
    sorts: NULLs last on ascending order, and mixed types grouped by
    type name.  Keys of one type and no NULL order the same by value
    alone, so they are compared as they are."""
    kind = type(keys[0]) if keys else None
    if kind is not type(None) and all(type(key) is kind for key in keys):
        by = keys.__getitem__
    else:
        by = [_sort_key(key) for key in keys].__getitem__
    return [rows[i] for i in sorted(range(len(rows)), key=by, reverse=descending)]


def _sort_key(value: Any) -> tuple:
    return (value is None, type(value).__name__, value if value is not None else 0)


def _apply_join(db, txn, joined: list, join: ast.Join, inner, layout: dict) -> list:
    """Extend each joined row with its matches in ``inner``; the rows
    it returns read their frames through ``layout``."""
    inner_key = join.alias or join.table
    inner_matcher = column_matcher(inner.schema, join.alias)
    # Decide which side of ON refers to the inner table.
    if inner_matcher(join.on_right) is not None:
        outer_col, inner_col = join.on_left, join.on_right
    elif inner_matcher(join.on_left) is not None:
        outer_col, inner_col = join.on_right, join.on_left
    else:
        raise SQLError(f"join ON does not reference {join.table!r}")
    inner_name = inner_matcher(inner_col)
    inner_position = inner.schema.positions[inner_name]
    out = []
    use_pk = inner_name == inner.schema.pk_column
    null_frame = (None,) * len(inner.schema.column_names)
    for row in joined:
        value = row(outer_col)
        if value is None:
            matches = []
        elif use_pk:
            txn.rows_examined += 1
            values = db.read_row(txn, inner, value)
            matches = [values] if values is not None else []
        else:
            candidates = inner.index_candidates(inner_name, value)
            matches = [
                vals
                for _pk, vals in db.scan(txn, inner, candidates=candidates)
                if vals[inner_position] == value
            ]
        if not matches and join.left_outer:
            matches = [null_frame]
        for values in matches:
            frames = dict(row.frames)
            frames[inner_key] = values
            out.append(_JoinedRow(frames, layout))
    return out


def _project(statement: ast.Select, plan: Plan, table, rows: list, params: tuple):
    """The client's result rows: one dict per row, in output order."""
    if plan.projection is None:
        if not statement.joins:
            image = table.schema.image
            out = [image(values) for values in rows]
        else:
            out = []
            for row in rows:
                flat: dict = {}
                layout = row.layout
                for key, frame in row.frames.items():
                    # a positions dict iterates its names in schema order
                    for name, value in zip(layout[key], frame):
                        flat.setdefault(name, value)
                out.append(flat)
        columns = tuple(out[0].keys()) if out else ()
        return columns, out
    projection = plan.projection
    out = [{name: fn(row, params) for name, fn in projection} for row in rows]
    return plan.columns, out


def _aggregate(statement: ast.Select, plan: Plan, rows: list, params: tuple) -> Result:
    """Aggregates, with or without GROUP BY, plus HAVING/ORDER BY/LIMIT:
    one pass folds every row into its group's state (:class:`Fold`)."""
    fold = plan.fold
    key_of = fold.key
    start = fold.start
    steps = fold.steps
    groups: dict = {}
    if key_of is None:
        state = groups[()] = start(None)
        for row in rows:
            state[1] += 1
            for step in steps:
                step(state, row, params)
    else:
        for row in rows:
            key = key_of(row)
            state = groups.get(key)
            if state is None:
                state = groups[key] = start(row)
            state[1] += 1
            for step in steps:
                step(state, row, params)

    out_rows = []
    having = fold.having
    for state in groups.values():
        out = {name: fn(state) for name, fn in fold.outputs}
        if having is not None:
            folded = [final(state) for final in fold.having_values]
            if not having((out, state, folded), params):
                continue
        out_rows.append(out)
    rows = out_rows

    if statement.order_by:
        for item in reversed(statement.order_by):
            name = item.column.name
            if rows and name not in rows[0]:
                raise SQLError(
                    f"ORDER BY column {name!r} is not in the grouped output"
                )
            rows = _ordered(rows, [row[name] for row in rows], item.descending)
    if plan.limit is not None:
        rows = rows[: int(plan.limit(None, params))]
    return Result(kind="select", rows=rows, columns=plan.columns, rowcount=len(rows))


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


def _insert(db, txn, table, plan: Plan, params: tuple):
    written = 0
    for row in plan.rows:
        values = {column: fn(None, params) for column, fn in row}
        yield from db.stage_insert(txn, table, values)
        written += 1
    return Result(kind="insert", rowcount=written, rows_written=written)


def _update(db, txn, table, plan: Plan, params: tuple):
    # A write is *blind* when the after image owes nothing to the row:
    # every non-pk column assigned (no old values survive into it —
    # ``plan.covers``), the target reachable without examining values
    # (pk path, and a WHERE that read no value of the row — the probe
    # _matches hands over), and no assignment expression reading the
    # row (the same probe).  Blind keys stay out of dependent_reads,
    # which is what certification salvage keys off.  Assigning the
    # primary key is refused when the plan is built.
    covers = plan.covers
    written = 0
    for pk, row in _matches(db, txn, table, plan, params):
        probe = row if covers else RowProbe(row)
        new_values = table.schema.image(probe.values)
        for column, fn in plan.assignments:
            new_values[column] = fn(probe, params)
        if probe.read and covers:
            txn.dependent_reads.add((table.name, pk))
        yield from db.stage_update(
            txn, table, pk, new_values, blind=covers and not probe.read
        )
        written += 1
    return Result(kind="update", rowcount=written, rows_written=written)


def _delete(db, txn, table, plan: Plan, params: tuple):
    written = 0
    for pk, _values in _matches(db, txn, table, plan, params):
        yield from db.stage_delete(txn, table, pk)
        written += 1
    return Result(kind="delete", rowcount=written, rows_written=written)
