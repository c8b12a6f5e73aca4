"""Statement plans: each parsed statement compiled once per table schema.

A :class:`Plan` holds everything the executor would otherwise re-derive
from the AST on every execution: the primary-key column of the target
table, the WHERE clause's equality terms (so only
:func:`~repro.sql.expressions.constant_value` runs per execution), every
expression compiled to a closure, the GROUP BY fold, the UPDATE
blind-write test, and the parameter count.

Every column reference is resolved here, so the closures read a row
without looking anything up.  What a row is depends on the statement:

* a single-table statement reads the stored row tuple itself, each
  column at the position the schema gives it.  WHERE accepts the
  table's name or alias as a qualifier; projection, ORDER BY, GROUP BY
  and aggregate arguments accept only the name the row is known by (its
  alias, if it has one);
* a join reads a :class:`~repro.sql.executor._JoinedRow`, a function
  of the column that resolves it against every joined table;
* a covering UPDATE reads a :class:`RowProbe`, which notes whether an
  expression read a value the write then depends on.

Only a result row is a dict again: projection and ``SELECT *`` build
one per row for the client.

A reference that does not resolve compiles to a closure raising the
error, so an unknown column still fails only when a row reaches it.

A plan holds nothing DDL can change: schemas are immutable, and the
choice between an index probe and a scan stays a runtime
``Table.index_candidates`` call, so a plan built before ``CREATE INDEX``
uses the index afterwards.  It holds no ``Table`` either, so replicas
whose schemas compare equal still plan separately against their own
schema objects.

Storage (:func:`plan_for`): plans live in the parse cache's slots
(``parser._PLAN_SLOTS``), keyed by the statement and schema objects and
checked by identity; the slots are dropped with the cache entries.
Statements outside the parse cache, and statements whose WHERE holds a
subquery (rewritten per execution by subquery binding), are planned but
never stored.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from repro.errors import SQLError
from repro.sql import ast, parser
from repro.sql.expressions import (
    Compiled,
    ColumnCompiler,
    compile_expr,
    conjuncts,
    constant_value,
    lookup_column,
    raising,
)

#: a statement's slot holds one plan per schema it ran against; a full
#: slot is emptied, so schemas of discarded databases do not pile up
_PLANS_PER_STATEMENT = 64

#: qualifier of the columns HAVING reads its folded aggregates through;
#: the lexer admits no ``#`` in a name, so no statement can write one
_FOLDED = "#folded"


class RowProbe:
    """A row of a covering UPDATE as its WHERE and SET closures read it:
    ``values`` is the row tuple, and ``read`` turns true when one of
    them read a value the write then depends on (the blind-write test,
    DESIGN §4m)."""

    __slots__ = ("values", "read")

    def __init__(self, values: tuple):
        self.values = values
        self.read = False


class Fold:
    """GROUP BY (or a whole-table aggregate) as one pass over the rows.

    A group's state is the list ``[first_row, row_count, slot, ...]``:
    one slot per aggregate the SELECT list and HAVING name.
    COUNT(x) counts, MIN and MAX keep the running value, and SUM and AVG
    keep the non-NULL argument values so that the builtin ``sum`` adds
    them exactly as before.  ``key`` maps a row to its group (None
    without GROUP BY: one group, present even with no rows), ``steps``
    fold one row into a state, ``outputs`` are ``((name, fn(state)),
    ...)``, and ``having`` reads ``(output_row, state, folded)``, where
    ``folded`` lists the values of the aggregates it names, in
    ``having_values`` order.
    """

    __slots__ = ("key", "start", "steps", "outputs", "having", "having_values")

    def __init__(self):
        self.key: Optional[Compiled] = None
        self.start: Callable[[Any], list] = list
        self.steps: tuple = ()
        self.outputs: tuple = ()
        self.having: Optional[Compiled] = None
        self.having_values: tuple = ()


class Plan:
    """The compiled, row-independent part of one statement on one schema."""

    __slots__ = (
        "kind",
        "pk_column",
        "terms",
        "where",
        "n_params",
        "binds_subqueries",
        "covers",
        "assignments",
        "columns",
        "projection",
        "order",
        "limit",
        "fold",
        "rows",
    )

    def __init__(self, kind: str, pk_column: str, n_params: int):
        self.kind = kind
        self.pk_column = pk_column
        self.n_params = n_params
        #: per WHERE conjunct: ("=", column, expr) or ("in", column, items)
        self.terms: tuple = ()
        self.where: Optional[Compiled] = None
        self.binds_subqueries = False
        #: UPDATE: every non-pk column assigned (the blind-write test);
        #: its WHERE and SET then read a RowProbe
        self.covers = False
        #: UPDATE: ((column, fn), ...)
        self.assignments: tuple = ()
        #: SELECT output names; projection is ((name, fn), ...) or None for *
        self.columns: tuple = ()
        self.projection: Optional[tuple] = None
        #: SELECT without aggregates: ((fn, descending), ...)
        self.order: tuple = ()
        self.limit: Optional[Compiled] = None
        #: aggregate SELECT
        self.fold: Optional[Fold] = None
        #: INSERT: one ((column, fn), ...) per VALUES row
        self.rows: tuple = ()

    def lookups(self, params: tuple) -> dict[str, list[Any]]:
        """Constant equality constraints per column name for ``params``.

        IN-lists of constants contribute multi-value lookups; an IN-list
        never overrides an earlier constraint on its column.
        """
        found: dict[str, list[Any]] = {}
        for op, name, operand in self.terms:
            if op == "=":
                ok, value = constant_value(operand, params)
                if ok:
                    found.setdefault(name, []).append(value)
            elif name not in found:
                values = []
                for item in operand:
                    ok, value = constant_value(item, params)
                    if not ok:
                        break
                    values.append(value)
                else:
                    found[name] = values
        return found


def plan_for(statement: Any, schema: Any) -> Plan:
    """The plan of ``statement`` (a DML node) against ``schema``."""
    slot = parser._PLAN_SLOTS.get(id(statement))
    if slot is not None and slot[0] is statement:
        plans = slot[1]
        hit = plans.get(id(schema))
        if hit is not None and hit[0] is schema:
            return hit[1]
        plan = build_plan(statement, schema)
        if not plan.binds_subqueries:
            if len(plans) >= _PLANS_PER_STATEMENT:
                plans.clear()
            plans[id(schema)] = (schema, plan)
        return plan
    return build_plan(statement, schema)


def column_matcher(schema: Any, alias: Optional[str]) -> Callable[[ast.Column], Optional[str]]:
    names = schema.positions
    aliases = {schema.name, alias} if alias else {schema.name}

    def match(col: ast.Column) -> Optional[str]:
        if col.table is not None and col.table not in aliases:
            return None
        return col.name if col.name in names else None

    return match


def build_plan(statement: Any, schema: Any) -> Plan:
    """Compile ``statement`` against ``schema`` (never cached here)."""
    nodes = list(_nodes(statement))
    plan = Plan(
        statement.kind,
        schema.pk_column,
        max((n.index + 1 for n in nodes if isinstance(n, ast.Param)), default=0),
    )
    if statement.kind == "insert":
        plan.rows = tuple(
            tuple(
                (column, compile_expr(expr, _no_row))
                for column, expr in zip(statement.columns, row)
            )
            for row in statement.rows
        )
        return plan
    where = statement.where
    match = column_matcher(schema, getattr(statement, "alias", None))
    positions = schema.positions
    plan.terms = _equality_terms(where, match)
    plan.binds_subqueries = any(isinstance(n, ast.Subquery) for n in _nodes(where))
    where_column = _where_column(match, positions)
    if statement.kind == "update":
        assigned = {column for column, _expr in statement.assignments}
        if plan.pk_column in assigned:
            raise SQLError("updating the primary key is not supported")
        plan.covers = assigned >= schema.positions.keys() - {plan.pk_column}
        if plan.covers:
            where_column = _probe_where_column(match, positions, plan.pk_column)
        assigned_column = _probe_column(positions)
        plan.assignments = tuple(
            (column, compile_expr(expr, assigned_column))
            for column, expr in statement.assignments
        )
    elif statement.kind == "select":
        if statement.joins:
            # a joined row resolves each reference itself
            where_column = row_column = lookup_column
            resolve = _unresolved
        else:
            base_key = statement.alias or statement.table
            row_column = _frame_column(base_key, positions)
            resolve = _frame_position(base_key, positions)
        if statement.limit is not None:
            plan.limit = compile_expr(statement.limit, _no_row)
        if statement.is_aggregate or statement.group_by:
            _plan_fold(plan, statement, row_column, resolve)
        else:
            if statement.columns != ("*",):
                _plan_projection(plan, statement, row_column)
            plan.order = tuple(
                (row_column(item.column), item.descending) for item in statement.order_by
            )
    plan.where = None if where is None else compile_expr(where, where_column)
    return plan


def _nodes(node: Any) -> Iterator[Any]:
    """Every AST node under ``node``, subquery bodies included."""
    if isinstance(node, tuple):
        for item in node:
            yield from _nodes(item)
    elif dataclasses.is_dataclass(node):
        yield node
        for f in dataclasses.fields(node):
            yield from _nodes(getattr(node, f.name))


def _equality_terms(where: Optional[Any], match) -> tuple:
    """The row-independent part of the equality access-path search."""
    terms = []
    for term in conjuncts(where):
        if isinstance(term, ast.BinOp) and term.op == "=":
            for col_side, other in ((term.left, term.right), (term.right, term.left)):
                if isinstance(col_side, ast.Column):
                    name = match(col_side)
                    if name is not None:
                        terms.append(("=", name, other))
        elif isinstance(term, ast.InList) and not term.negated:
            if isinstance(term.expr, ast.Column):
                name = match(term.expr)
                if name is not None:
                    terms.append(("in", name, term.items))
    return tuple(terms)


# ---------------------------------------------------------------------------
# Column hooks: how each kind of row is read
# ---------------------------------------------------------------------------


def _item(position: int) -> Compiled:
    def item(row, params):
        return row[position]

    return item


def _where_column(match, positions: dict) -> ColumnCompiler:
    """WHERE on one table's row tuple: the table's name or alias
    qualifies."""

    def column(col: ast.Column) -> Compiled:
        name = match(col)
        if name is None:
            return raising(f"unknown column {col.display!r}")
        return _item(positions[name])

    return column


def _frame_column(base_key: str, positions: dict) -> ColumnCompiler:
    """Projection, ORDER BY and GROUP BY on one table's row tuple: only
    the name the row is known by (``base_key``) qualifies."""

    def column(col: ast.Column) -> Compiled:
        if col.table is not None and col.table != base_key:
            return raising(f"unknown table qualifier {col.table!r}")
        if col.name not in positions:
            return raising(f"unknown column {col.display!r}")
        return _item(positions[col.name])

    return column


def _frame_position(base_key: str, positions: dict) -> Callable[[ast.Column], Optional[int]]:
    """The row position ``_frame_column`` resolves a column to, or None
    where it compiles an error."""

    def position(col: ast.Column) -> Optional[int]:
        if col.table is None or col.table == base_key:
            return positions.get(col.name)
        return None

    return position


def _unresolved(col: ast.Column) -> None:
    """A join's rows resolve their columns themselves."""
    return None


def _no_row(col: ast.Column) -> Compiled:
    """Expressions evaluated without a row (LIMIT, VALUES): NULL."""

    def null(row, params):
        return None

    return null


def _probe_where_column(match, positions: dict, pk_column: str) -> ColumnCompiler:
    """A covering UPDATE's WHERE: a non-pk value it examines makes the
    row a dependent read."""

    def column(col: ast.Column) -> Compiled:
        name = match(col)
        if name is None:
            return raising(f"unknown column {col.display!r}")
        position = positions[name]
        if name == pk_column:

            def key(probe, params):
                return probe.values[position]

            return key

        def value(probe, params):
            probe.read = True
            return probe.values[position]

        return value

    return column


def _probe_column(positions: dict) -> ColumnCompiler:
    """UPDATE's SET: any column it reads makes the write depend on the
    row; a qualifier is not checked."""

    def column(col: ast.Column) -> Compiled:
        position = positions.get(col.name)
        if position is None:
            return raising(f"unknown column {col.display!r}")

        def value(probe, params):
            probe.read = True
            return probe.values[position]

        return value

    return column


# ---------------------------------------------------------------------------
# SELECT lists
# ---------------------------------------------------------------------------


def _plan_projection(plan: Plan, statement: ast.Select, row_column: ColumnCompiler) -> None:
    columns = []
    for clause in statement.columns:
        if clause.alias:
            columns.append(clause.alias)
        elif isinstance(clause.expr, ast.Column):
            columns.append(clause.expr.name)
        else:
            columns.append(f"col{len(columns)}")
    plan.columns = tuple(columns)
    plan.projection = tuple(
        (name, compile_expr(clause.expr, row_column))
        for name, clause in zip(columns, statement.columns)
    )


def _plan_fold(plan: Plan, statement: ast.Select, row_column: ColumnCompiler, resolve) -> None:
    grouped_names = {col.name for col in statement.group_by}
    fold = Fold()
    kinds: list = []  # per slot: its initial value, or list for a fresh list
    steps: list = []

    def final(expr: ast.Aggregate) -> Callable[[list], Any]:
        return _accumulator(expr, 2 + len(kinds), row_column, kinds, steps)

    outputs = []
    for i, clause in enumerate(statement.columns):
        expr = clause.expr
        if isinstance(expr, ast.Aggregate):
            name = clause.alias or f"{expr.func.lower()}{i}"
            outputs.append((name, final(expr)))
        elif isinstance(expr, ast.Column):
            if expr.name not in grouped_names:
                raise SQLError(
                    f"column {expr.display!r} must appear in GROUP BY "
                    "or be inside an aggregate"
                )
            outputs.append(
                (clause.alias or expr.name, _of_first_row(expr, row_column, resolve))
            )
        else:
            raise SQLError("projection must be a column or an aggregate here")
    plan.columns = tuple(name for name, _fn in outputs)
    fold.outputs = tuple(outputs)

    if statement.group_by:
        found = [resolve(col) for col in statement.group_by]
        if None not in found:
            # one column: its value; several: their tuple
            fold.key = itemgetter(*found)
        else:
            keys = tuple(row_column(col) for col in statement.group_by)

            def key(row):
                values = tuple([fn(row, None) for fn in keys])
                return values[0] if len(values) == 1 else values

            fold.key = key

    if statement.having is not None:
        values: list = []
        having = _fold_having(statement.having, final, values)
        fold.having = compile_expr(having, _having_column(plan.columns, row_column))
        fold.having_values = tuple(values)

    fold.steps = tuple(steps)
    initial = tuple(None if kind is list else kind for kind in kinds)
    fresh = tuple(2 + i for i, kind in enumerate(kinds) if kind is list)

    def start(row) -> list:
        state = [row, 0, *initial]
        for index in fresh:
            state[index] = []
        return state

    fold.start = start
    plan.fold = fold


def _of_first_row(col: ast.Column, row_column: ColumnCompiler, resolve) -> Callable[[list], Any]:
    """A grouped column's output: its value in the group's first row."""
    position = resolve(col)
    if position is not None:
        return lambda state: state[0][position]
    fn = row_column(col)
    return lambda state: fn(state[0], None)


def _accumulator(expr: ast.Aggregate, index: int, row_column, kinds: list, steps: list):
    """Register the state slot ``index`` of ``expr`` (its initial value in
    ``kinds``, its per-row step in ``steps``); returns its final value as
    a function of the group state."""
    func = expr.func
    if func == "COUNT" and expr.arg is None:
        return _row_count
    if func not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
        raise SQLError(f"unknown aggregate {func!r}")
    arg = compile_expr(expr.arg, row_column)
    if func == "COUNT":
        kinds.append(0)

        def count(state, row, params):
            if arg(row, params) is not None:
                state[index] += 1

        steps.append(count)
        return lambda state: state[index]
    if func in ("MIN", "MAX"):
        kinds.append(None)
        lower = func == "MIN"

        def extreme(state, row, params):
            value = arg(row, params)
            if value is not None:
                best = state[index]
                if best is None or (value < best if lower else value > best):
                    state[index] = value

        steps.append(extreme)
        return lambda state: state[index]
    kinds.append(list)

    def sample(state, row, params):
        value = arg(row, params)
        if value is not None:
            state[index].append(value)

    steps.append(sample)
    if func == "SUM":
        return lambda state: sum(state[index]) if state[index] else None
    return lambda state: (
        sum(state[index]) / len(state[index]) if state[index] else None
    )


def _row_count(state: list) -> int:
    return state[1]


def _fold_having(expr: Any, final, values: list) -> Any:
    """HAVING with each aggregate under AND/OR/NOT/arithmetic/comparison
    replaced by a column of the group's ``values`` (appended in tree
    order).  An aggregate anywhere else stays, and cannot be evaluated."""
    if isinstance(expr, ast.Aggregate):
        values.append(final(expr))
        return ast.Column(str(len(values) - 1), _FOLDED)
    if isinstance(expr, ast.BinOp):
        left = _fold_having(expr.left, final, values)
        return ast.BinOp(expr.op, left, _fold_having(expr.right, final, values))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _fold_having(expr.operand, final, values))
    return expr


def _having_column(outputs: tuple, row_column: ColumnCompiler) -> ColumnCompiler:
    """HAVING reads ``(output_row, state, folded)``: a folded aggregate,
    an output column by name, else the group's first row."""

    def column(col: ast.Column) -> Compiled:
        if col.table == _FOLDED:
            index = int(col.name)
            return lambda group, params: group[2][index]
        if col.name in outputs:
            name = col.name
            return lambda group, params: group[0][name]
        fn = row_column(col)
        return lambda group, params: fn(group[1][0], params)

    return column
