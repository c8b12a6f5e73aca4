"""Expression compilation with SQL-ish NULL semantics.

Comparisons involving NULL are false; arithmetic with NULL yields NULL;
``IS [NOT] NULL`` tests explicitly.  This is a pragmatic two-valued
simplification of SQL's three-valued logic, sufficient for the workloads.

:func:`compile_expr` turns an expression tree into one closure
``fn(lookup, params)`` and is the only implementation of these
semantics.  Statement plans (:mod:`repro.sql.plan`) compile each
expression once; :func:`evaluate` compiles and calls, for the cold paths
that meet a tree once (HAVING after aggregate folding, LIMIT, statements
rewritten by subquery binding).
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Iterator, Optional

from repro.errors import SQLError
from repro.sql import ast

RowLookup = Callable[[ast.Column], Any]
Compiled = Callable[[RowLookup, tuple], Any]


def evaluate(expr: Any, lookup: RowLookup, params: tuple) -> Any:
    """Evaluate ``expr`` against one row (via ``lookup``) and parameters."""
    return compile_expr(expr)(lookup, params)


def compile_expr(expr: Any) -> Compiled:
    """Compile ``expr`` to ``fn(lookup, params)``.

    Never raises: a node that cannot be evaluated compiles to a closure
    raising the evaluation-time error, so errors surface exactly when a
    row (or the parameters) reach the node.
    """
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _cannot_evaluate(expr)
    return compiler(expr)


def _cannot_evaluate(expr: Any) -> Compiled:
    def cannot_evaluate(lookup, params):
        raise SQLError(f"cannot evaluate expression {expr!r}")

    return cannot_evaluate


def _literal(expr: ast.Literal) -> Compiled:
    value = expr.value

    def literal(lookup, params):
        return value

    return literal


def _param(expr: ast.Param) -> Compiled:
    index = expr.index

    def param(lookup, params):
        if index >= len(params):
            raise SQLError(
                f"statement has parameter ?{index} but only "
                f"{len(params)} values were supplied"
            )
        return params[index]

    return param


def _column(expr: ast.Column) -> Compiled:
    def column(lookup, params):
        return lookup(expr)

    return column


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _binop(expr: ast.BinOp) -> Compiled:
    op = expr.op
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    if op == "AND":

        def conjunction(lookup, params):
            return bool(left(lookup, params)) and bool(right(lookup, params))

        return conjunction
    if op == "OR":

        def disjunction(lookup, params):
            return bool(left(lookup, params)) or bool(right(lookup, params))

        return disjunction
    if op == "/":

        def divide(lookup, params):
            lhs = left(lookup, params)
            rhs = right(lookup, params)
            if lhs is None or rhs is None:
                return None
            if rhs == 0:
                raise SQLError("division by zero")
            return lhs / rhs

        return divide
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:

        def arithmetic_op(lookup, params):
            lhs = left(lookup, params)
            rhs = right(lookup, params)
            if lhs is None or rhs is None:
                return None
            return arithmetic(lhs, rhs)

        return arithmetic_op
    compare = _COMPARISONS.get(op)
    if compare is None:

        def unknown(lookup, params):
            lhs = left(lookup, params)
            rhs = right(lookup, params)
            if lhs is None or rhs is None:
                return False
            raise SQLError(f"unknown operator {op!r}")

        return unknown

    def comparison(lookup, params):
        lhs = left(lookup, params)
        rhs = right(lookup, params)
        if lhs is None or rhs is None:
            return False
        try:
            return compare(lhs, rhs)
        except TypeError as err:
            raise SQLError(f"type error comparing {lhs!r} {op} {rhs!r}") from err

    return comparison


def _unary(expr: ast.UnaryOp) -> Compiled:
    op = expr.op
    operand = compile_expr(expr.operand)
    if op == "NOT":

        def negation(lookup, params):
            return not bool(operand(lookup, params))

        return negation
    if op == "NEG":

        def minus(lookup, params):
            value = operand(lookup, params)
            return None if value is None else -value

        return minus

    def unknown(lookup, params):
        operand(lookup, params)
        raise SQLError(f"unknown unary op {op!r}")

    return unknown


def _in_list(expr: ast.InList) -> Compiled:
    subject = compile_expr(expr.expr)
    items = tuple(compile_expr(item) for item in expr.items)
    negated = expr.negated

    def in_list(lookup, params):
        value = subject(lookup, params)
        if value is None:
            return False
        result = value in [item(lookup, params) for item in items]
        return not result if negated else result

    return in_list


def _between(expr: ast.Between) -> Compiled:
    subject = compile_expr(expr.expr)
    low = compile_expr(expr.low)
    high = compile_expr(expr.high)
    negated = expr.negated

    def between(lookup, params):
        value = subject(lookup, params)
        lo = low(lookup, params)
        hi = high(lookup, params)
        if value is None or lo is None or hi is None:
            return False
        result = lo <= value <= hi
        return not result if negated else result

    return between


def _is_null(expr: ast.IsNull) -> Compiled:
    subject = compile_expr(expr.expr)
    negated = expr.negated

    def is_null(lookup, params):
        result = subject(lookup, params) is None
        return not result if negated else result

    return is_null


def _like(expr: ast.Like) -> Compiled:
    subject = compile_expr(expr.expr)
    pattern_of = compile_expr(expr.pattern)
    negated = expr.negated

    def like(lookup, params):
        value = subject(lookup, params)
        pattern = pattern_of(lookup, params)
        if value is None or pattern is None:
            return False
        result = bool(_like_regex(pattern).match(str(value)))
        return not result if negated else result

    return like


_COMPILERS: dict[type, Callable[[Any], Compiled]] = {
    ast.Literal: _literal,
    ast.Param: _param,
    ast.Column: _column,
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
