"""Statement plans: each parsed statement compiled once per table schema.

A :class:`Plan` holds everything the executor would otherwise re-derive
from the AST on every execution: the primary-key column and column
matcher of the target table, the WHERE clause's equality terms (so only
:func:`~repro.sql.expressions.constant_value` runs per execution), the
WHERE / SET / projection / INSERT-value expressions compiled to
closures, the UPDATE blind-write test, and the parameter count.

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
from typing import Any, Callable, Iterator, Optional

from repro.errors import SQLError
from repro.sql import ast, parser
from repro.sql.expressions import Compiled, compile_expr, conjuncts, constant_value

#: a statement's slot holds one plan per schema it ran against; a full
#: slot is emptied, so schemas of discarded databases do not pile up
_PLANS_PER_STATEMENT = 64


class Plan:
    """The compiled, row-independent part of one statement on one schema."""

    __slots__ = (
        "kind",
        "pk_column",
        "match",
        "terms",
        "where",
        "n_params",
        "binds_subqueries",
        "covers",
        "assignments",
        "columns",
        "projection",
        "aggregates",
        "rows",
    )

    def __init__(self, kind: str, pk_column: str, n_params: int):
        self.kind = kind
        self.pk_column = pk_column
        self.n_params = n_params
        #: maps an AST column to its name if it refers to the target table
        self.match: Optional[Callable[[ast.Column], Optional[str]]] = None
        #: per WHERE conjunct: ("=", column, expr) or ("in", column, items)
        self.terms: tuple = ()
        self.where: Optional[Compiled] = None
        self.binds_subqueries = False
        #: UPDATE: every non-pk column assigned (the blind-write test)
        self.covers = False
        #: UPDATE: ((column, fn), ...)
        self.assignments: tuple = ()
        #: SELECT output names; projection is ((name, fn), ...) or None for *
        self.columns: tuple = ()
        self.projection: Optional[tuple] = None
        #: aggregate SELECT: ((name, expr, fn), ...); expr is an Aggregate
        #: or a grouped Column, fn its argument / the column, compiled
        self.aggregates: Optional[tuple] = None
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
    names = schema.column_set
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
                (column, compile_expr(expr))
                for column, expr in zip(statement.columns, row)
            )
            for row in statement.rows
        )
        return plan
    where = statement.where
    plan.match = column_matcher(schema, getattr(statement, "alias", None))
    plan.terms = _equality_terms(where, plan.match)
    plan.where = None if where is None else compile_expr(where)
    plan.binds_subqueries = any(isinstance(n, ast.Subquery) for n in _nodes(where))
    if statement.kind == "update":
        assigned = {column for column, _expr in statement.assignments}
        if plan.pk_column in assigned:
            raise SQLError("updating the primary key is not supported")
        plan.covers = assigned >= schema.column_set - {plan.pk_column}
        plan.assignments = tuple(
            (column, compile_expr(expr)) for column, expr in statement.assignments
        )
    elif statement.kind == "select":
        if statement.is_aggregate or statement.group_by:
            _plan_aggregates(plan, statement)
        elif statement.columns != ("*",):
            _plan_projection(plan, statement)
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


def _plan_projection(plan: Plan, statement: ast.Select) -> None:
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
        (name, compile_expr(clause.expr))
        for name, clause in zip(columns, statement.columns)
    )


def _plan_aggregates(plan: Plan, statement: ast.Select) -> None:
    grouped_names = {col.name for col in statement.group_by}
    specs = []
    for i, clause in enumerate(statement.columns):
        expr = clause.expr
        if isinstance(expr, ast.Aggregate):
            name = clause.alias or f"{expr.func.lower()}{i}"
            specs.append((name, expr, compile_expr(expr.arg)))
        elif isinstance(expr, ast.Column):
            if expr.name not in grouped_names:
                raise SQLError(
                    f"column {expr.display!r} must appear in GROUP BY "
                    "or be inside an aggregate"
                )
            specs.append((clause.alias or expr.name, expr, compile_expr(expr)))
        else:
            raise SQLError("projection must be a column or an aggregate here")
    plan.columns = tuple(name for name, _expr, _fn in specs)
    plan.aggregates = tuple(specs)
