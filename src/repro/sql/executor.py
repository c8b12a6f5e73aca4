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
from typing import Any, Callable, Generator, Optional

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.expressions import compile_expr, evaluate
from repro.sql.plan import Plan, build_plan, column_matcher, plan_for


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


def _single_table_matches(db, txn, table, plan: Plan, params, locating=False):
    """Materialise matching (pk, values) pairs of one table.

    With ``locating`` set, a residual predicate that examines a non-pk
    column value demotes that row back to a dependent read: the match
    decision then hinges on row content, so the write is not blind.
    """
    where = plan.where
    rows = _candidate_rows(db, txn, table, plan, params, locating=locating)
    if where is None:
        return list(rows)
    match = plan.match
    pk_column = plan.pk_column
    matches = []
    for pk, values in rows:

        def lookup(col: ast.Column, _pk=pk, _values=values) -> Any:
            name = match(col)
            if name is None:
                raise SQLError(f"unknown column {col.display!r}")
            if locating and name != pk_column:
                txn.dependent_reads.add((table.name, _pk))
            return _values[name]

        if where(lookup, params):
            matches.append((pk, values))
    return matches


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


class _JoinedRow:
    """Namespace mapping (alias or table) -> row dict for joined scans."""

    __slots__ = ("frames",)

    def __init__(self, frames: dict[str, dict]):
        self.frames = frames

    def lookup(self, col: ast.Column) -> Any:
        if col.table is not None:
            frame = self.frames.get(col.table)
            if frame is None:
                raise SQLError(f"unknown table qualifier {col.table!r}")
            if col.name not in frame:
                raise SQLError(f"unknown column {col.display!r}")
            return frame[col.name]
        hits = [frame for frame in self.frames.values() if col.name in frame]
        if not hits:
            raise SQLError(f"unknown column {col.name!r}")
        if len(hits) > 1:
            raise SQLError(f"ambiguous column {col.name!r}")
        return hits[0][col.name]


def _select(db, txn, table, statement: ast.Select, plan: Plan, params: tuple) -> Result:
    base_key = statement.alias or statement.table

    if not statement.joins:
        joined = [
            _JoinedRow({base_key: values})
            for _pk, values in _single_table_matches(db, txn, table, plan, params)
        ]
    else:
        # Equality conjuncts on the base table narrow the scan; they give
        # a superset of the matches, and the full WHERE filters after the
        # joins.
        joined = [
            _JoinedRow({base_key: values})
            for _pk, values in _candidate_rows(db, txn, table, plan, params)
        ]
        for join in statement.joins:
            joined = _apply_join(db, txn, joined, join)
        if plan.where is not None:
            joined = [row for row in joined if plan.where(row.lookup, params)]

    if plan.aggregates is not None:
        return _aggregate(statement, plan, joined, params)

    if statement.distinct:
        # SQL semantics: project, dedupe, then ORDER BY (on output
        # columns) and LIMIT.
        columns, rows = _project(plan, joined, params)
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
            rows.sort(key=lambda r, n=name: _sort_key(r[n]), reverse=item.descending)
        if statement.limit is not None:
            limit = evaluate(statement.limit, _no_row, params)
            rows = rows[: int(limit)]
        return Result(kind="select", rows=rows, columns=columns, rowcount=len(rows))

    if statement.order_by:
        for item in reversed(statement.order_by):
            joined.sort(
                key=lambda row, col=item.column: _sort_key(row.lookup(col)),
                reverse=item.descending,
            )
    if statement.limit is not None:
        limit = evaluate(statement.limit, _no_row, params)
        joined = joined[: int(limit)]

    columns, rows = _project(plan, joined, params)
    return Result(kind="select", rows=rows, columns=columns, rowcount=len(rows))


def _no_row(col: ast.Column) -> Any:
    """Row lookup for expressions evaluated without a row (LIMIT, VALUES)."""
    return None


def _sort_key(value: Any) -> tuple:
    # NULLs last on ascending order, and mixed types grouped by type name.
    return (value is None, type(value).__name__, value if value is not None else 0)


def _apply_join(db, txn, joined: list, join: ast.Join) -> list:
    inner = db.catalog.table(join.table)
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
    out = []
    use_pk = inner_name == inner.schema.pk_column
    null_frame = dict.fromkeys(inner.schema.column_names)
    for row in joined:
        value = row.lookup(outer_col)
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
                if vals[inner_name] == value
            ]
        if not matches and join.left_outer:
            matches = [null_frame]
        for values in matches:
            frames = dict(row.frames)
            frames[inner_key] = values
            out.append(_JoinedRow(frames))
    return out


def _project(plan: Plan, joined: list, params: tuple):
    if plan.projection is None:
        rows = []
        for row in joined:
            flat: dict = {}
            for frame in row.frames.values():
                for name, value in frame.items():
                    flat.setdefault(name, value)
            rows.append(flat)
        columns = tuple(rows[0].keys()) if rows else ()
        return columns, rows
    projection = plan.projection
    rows = [
        {name: fn(row.lookup, params) for name, fn in projection} for row in joined
    ]
    return plan.columns, rows


def _eval_aggregate(
    expr: ast.Aggregate, arg: Callable, members: list, params: tuple
) -> Any:
    """``expr`` over ``members``; ``arg`` is its compiled argument."""
    if expr.func == "COUNT" and expr.arg is None:
        return len(members)
    samples = [arg(row.lookup, params) for row in members]
    samples = [s for s in samples if s is not None]
    if expr.func == "COUNT":
        return len(samples)
    if not samples:
        return None
    if expr.func == "SUM":
        return sum(samples)
    if expr.func == "AVG":
        return sum(samples) / len(samples)
    if expr.func == "MIN":
        return min(samples)
    if expr.func == "MAX":
        return max(samples)
    raise SQLError(f"unknown aggregate {expr.func!r}")


def _fold_aggregates(expr: Any, members: list, params: tuple) -> Any:
    """Replace Aggregate nodes by their computed value (for HAVING)."""
    if isinstance(expr, ast.Aggregate):
        arg = compile_expr(expr.arg)
        return ast.Literal(_eval_aggregate(expr, arg, members, params))
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(
            expr.op,
            _fold_aggregates(expr.left, members, params),
            _fold_aggregates(expr.right, members, params),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _fold_aggregates(expr.operand, members, params))
    return expr


def _aggregate(statement: ast.Select, plan: Plan, joined: list, params: tuple) -> Result:
    """Aggregates, with or without GROUP BY, plus HAVING/ORDER BY/LIMIT."""
    if statement.group_by:
        groups: dict[tuple, list] = {}
        order: list[tuple] = []
        for row in joined:
            key = tuple(row.lookup(col) for col in statement.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        grouped = [(key, groups[key]) for key in order]
    else:
        grouped = [((), joined)]

    rows = []
    for _key, members in grouped:
        out: dict = {}
        for name, expr, fn in plan.aggregates:
            if isinstance(expr, ast.Aggregate):
                out[name] = _eval_aggregate(expr, fn, members, params)
            else:
                out[name] = fn(members[0].lookup, params)
        if statement.having is not None:
            folded = _fold_aggregates(statement.having, members, params)

            def lookup(col: ast.Column, _out=out, _members=members) -> Any:
                if col.name in _out:
                    return _out[col.name]
                return _members[0].lookup(col)

            if not evaluate(folded, lookup, params):
                continue
        rows.append(out)

    if statement.order_by:
        for item in reversed(statement.order_by):
            name = item.column.name
            if rows and name not in rows[0]:
                raise SQLError(
                    f"ORDER BY column {name!r} is not in the grouped output"
                )
            rows.sort(key=lambda r, n=name: _sort_key(r[n]), reverse=item.descending)
    if statement.limit is not None:
        limit = evaluate(statement.limit, _no_row, params)
        rows = rows[: int(limit)]
    return Result(kind="select", rows=rows, columns=plan.columns, rowcount=len(rows))


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


def _insert(db, txn, table, plan: Plan, params: tuple):
    written = 0
    for row in plan.rows:
        values = {column: fn(_no_row, params) for column, fn in row}
        yield from db.stage_insert(txn, table, values)
        written += 1
    return Result(kind="insert", rowcount=written, rows_written=written)


def _update(db, txn, table, plan: Plan, params: tuple):
    # A write is *blind* when the after image owes nothing to the row:
    # every non-pk column assigned (no old values survive into it —
    # ``plan.covers``), the target reachable without examining values
    # (pk path — checked by _candidate_rows), and no assignment
    # expression reading the row (checked per row below).  Blind keys
    # stay out of dependent_reads, which is what certification salvage
    # keys off.  Assigning the primary key is refused when the plan is
    # built.
    covers = plan.covers
    matches = _single_table_matches(db, txn, table, plan, params, locating=covers)
    written = 0
    for pk, values in matches:
        reads_row = False

        def lookup(col: ast.Column, _values=values) -> Any:
            nonlocal reads_row
            if col.name not in _values:
                raise SQLError(f"unknown column {col.display!r}")
            reads_row = True
            return _values[col.name]

        new_values = dict(values)
        for column, fn in plan.assignments:
            new_values[column] = fn(lookup, params)
        if reads_row and covers:
            txn.dependent_reads.add((table.name, pk))
        yield from db.stage_update(
            txn, table, pk, new_values, blind=covers and not reads_row
        )
        written += 1
    return Result(kind="update", rowcount=written, rows_written=written)


def _delete(db, txn, table, plan: Plan, params: tuple):
    matches = _single_table_matches(db, txn, table, plan, params)
    written = 0
    for pk, _values in matches:
        yield from db.stage_delete(txn, table, pk)
        written += 1
    return Result(kind="delete", rowcount=written, rows_written=written)
