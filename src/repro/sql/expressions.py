"""Expression compilation with SQL-ish NULL semantics.

Comparisons involving NULL are false; arithmetic with NULL yields NULL;
``IS [NOT] NULL`` tests explicitly.  This is a pragmatic two-valued
simplification of SQL's three-valued logic, sufficient for the workloads.

:func:`compile_expr` turns an expression tree into one closure
``fn(row, params)`` and is the only implementation of these semantics.
What ``row`` is belongs to the caller: the ``column`` hook compiles each
column reference to a closure reading it.  Statement plans
(:mod:`repro.sql.plan`) resolve every column at plan time, so a
single-table row is read as a plain dict; the default hook calls
``row(column)``, for rows that look their columns up themselves (a
join's rows).
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Iterator, Optional

from repro.errors import SQLError
from repro.sql import ast

Compiled = Callable[[Any, tuple], Any]
ColumnCompiler = Callable[[ast.Column], Compiled]


def lookup_column(col: ast.Column) -> Compiled:
    """The default column hook: ``row`` is a function of the column."""

    def column(row, params):
        return row(col)

    return column


def compile_expr(expr: Any, column: ColumnCompiler = lookup_column) -> Compiled:
    """Compile ``expr`` to ``fn(row, params)``; ``column`` compiles its
    column references.

    Never raises: a node that cannot be evaluated compiles to a closure
    raising the evaluation-time error, so errors surface exactly when a
    row (or the parameters) reach the node.
    """
    if type(expr) is ast.Column:
        return column(expr)
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return raising(f"cannot evaluate expression {expr!r}")
    return compiler(expr, column)


def raising(message: str) -> Compiled:
    """A closure that raises ``SQLError(message)`` when it is evaluated."""

    def raise_error(row, params):
        raise SQLError(message)

    return raise_error


def _literal(expr: ast.Literal, column: ColumnCompiler) -> Compiled:
    value = expr.value

    def literal(row, params):
        return value

    return literal


def _param(expr: ast.Param, column: ColumnCompiler) -> Compiled:
    index = expr.index

    def param(row, params):
        if index >= len(params):
            raise SQLError(
                f"statement has parameter ?{index} but only "
                f"{len(params)} values were supplied"
            )
        return params[index]

    return param


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _binop(expr: ast.BinOp, column: ColumnCompiler) -> Compiled:
    op = expr.op
    left = compile_expr(expr.left, column)
    right = compile_expr(expr.right, column)
    if op == "AND":

        def conjunction(row, params):
            return bool(left(row, params)) and bool(right(row, params))

        return conjunction
    if op == "OR":

        def disjunction(row, params):
            return bool(left(row, params)) or bool(right(row, params))

        return disjunction
    if op == "/":

        def divide(row, params):
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            if rhs == 0:
                raise SQLError("division by zero")
            return lhs / rhs

        return divide
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:

        def arithmetic_op(row, params):
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return None
            return arithmetic(lhs, rhs)

        return arithmetic_op
    compare = _COMPARISONS.get(op)
    if compare is None:

        def unknown(row, params):
            lhs = left(row, params)
            rhs = right(row, params)
            if lhs is None or rhs is None:
                return False
            raise SQLError(f"unknown operator {op!r}")

        return unknown

    def comparison(row, params):
        lhs = left(row, params)
        rhs = right(row, params)
        if lhs is None or rhs is None:
            return False
        try:
            return compare(lhs, rhs)
        except TypeError as err:
            raise SQLError(f"type error comparing {lhs!r} {op} {rhs!r}") from err

    return comparison


def _unary(expr: ast.UnaryOp, column: ColumnCompiler) -> Compiled:
    op = expr.op
    operand = compile_expr(expr.operand, column)
    if op == "NOT":

        def negation(row, params):
            return not bool(operand(row, params))

        return negation
    if op == "NEG":

        def minus(row, params):
            value = operand(row, params)
            return None if value is None else -value

        return minus

    def unknown(row, params):
        operand(row, params)
        raise SQLError(f"unknown unary op {op!r}")

    return unknown


def _in_list(expr: ast.InList, column: ColumnCompiler) -> Compiled:
    subject = compile_expr(expr.expr, column)
    items = tuple(compile_expr(item, column) for item in expr.items)
    negated = expr.negated

    def in_list(row, params):
        value = subject(row, params)
        if value is None:
            return False
        result = value in [item(row, params) for item in items]
        return not result if negated else result

    return in_list


def _between(expr: ast.Between, column: ColumnCompiler) -> Compiled:
    subject = compile_expr(expr.expr, column)
    low = compile_expr(expr.low, column)
    high = compile_expr(expr.high, column)
    negated = expr.negated

    def between(row, params):
        value = subject(row, params)
        lo = low(row, params)
        hi = high(row, params)
        if value is None or lo is None or hi is None:
            return False
        result = lo <= value <= hi
        return not result if negated else result

    return between


def _is_null(expr: ast.IsNull, column: ColumnCompiler) -> Compiled:
    subject = compile_expr(expr.expr, column)
    negated = expr.negated

    def is_null(row, params):
        result = subject(row, params) is None
        return not result if negated else result

    return is_null


def _like(expr: ast.Like, column: ColumnCompiler) -> Compiled:
    subject = compile_expr(expr.expr, column)
    pattern_of = compile_expr(expr.pattern, column)
    negated = expr.negated

    def like(row, params):
        value = subject(row, params)
        pattern = pattern_of(row, params)
        if value is None or pattern is None:
            return False
        result = bool(_like_regex(pattern).match(str(value)))
        return not result if negated else result

    return like


_COMPILERS: dict[type, Callable[[Any, ColumnCompiler], Compiled]] = {
    ast.Literal: _literal,
    ast.Param: _param,
    ast.BinOp: _binop,
    ast.UnaryOp: _unary,
    ast.InList: _in_list,
    ast.Between: _between,
    ast.IsNull: _is_null,
    ast.Like: _like,
}


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_regex(pattern: str) -> re.Pattern:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        compiled = re.compile(f"^{regex}$", re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Planner helpers
# ---------------------------------------------------------------------------


def conjuncts(where: Optional[Any]) -> Iterator[Any]:
    """Top-level AND-ed terms of a WHERE clause."""
    if where is None:
        return
    if isinstance(where, ast.BinOp) and where.op == "AND":
        yield from conjuncts(where.left)
        yield from conjuncts(where.right)
    else:
        yield where


def constant_value(expr: Any, params: tuple) -> tuple[bool, Any]:
    """(is_constant, value) for expressions not needing a row."""
    if isinstance(expr, ast.Literal):
        return True, expr.value
    if isinstance(expr, ast.Param):
        return True, params[expr.index] if expr.index < len(params) else None
    if isinstance(expr, ast.UnaryOp) and expr.op == "NEG":
        ok, value = constant_value(expr.operand, params)
        if ok and value is not None:
            return True, -value
        return False, None
    return False, None
