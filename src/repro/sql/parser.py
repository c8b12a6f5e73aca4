"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.lexer import END, IDENT, KW, NUMBER, PARAM, PUNCT, STRING, Token, tokenize


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # -- token plumbing --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def check(self, kind: str, value: Any = None) -> bool:
        token = self.current
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind: str, value: Any = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Any = None) -> Token:
        if not self.check(kind, value):
            want = value if value is not None else kind
            raise SQLError(
                f"expected {want!r} but found {self.current!r} "
                f"at position {self.current.pos} in {self.sql!r}"
            )
        return self.advance()

    def expect_ident(self) -> str:
        return str(self.expect(IDENT).value)

    # -- entry -------------------------------------------------------------------

    def parse(self) -> Any:
        if self.check(KW, "SELECT"):
            stmt = self.parse_select()
        elif self.check(KW, "INSERT"):
            stmt = self.parse_insert()
        elif self.check(KW, "UPDATE"):
            stmt = self.parse_update()
        elif self.check(KW, "DELETE"):
            stmt = self.parse_delete()
        elif self.check(KW, "CREATE"):
            stmt = self.parse_create()
        else:
            raise SQLError(f"cannot parse statement: {self.sql!r}")
        self.accept(PUNCT, ";")
        self.expect(END)
        return stmt

    # -- statements ----------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect(KW, "SELECT")
        distinct = bool(self.accept(KW, "DISTINCT"))
        columns: list = []
        if self.accept(PUNCT, "*"):
            columns = ["*"]
        else:
            while True:
                expr = self.parse_expr()
                alias = None
                if self.accept(KW, "AS"):
                    alias = self.expect_ident()
                columns.append(ast.ColumnClause(expr, alias))
                if not self.accept(PUNCT, ","):
                    break
        self.expect(KW, "FROM")
        table = self.expect_ident()
        alias = self.current.value if self.check(IDENT) else None
        if alias:
            self.advance()
        joins = []
        while (
            self.check(KW, "JOIN")
            or self.check(KW, "INNER")
            or self.check(KW, "LEFT")
        ):
            left_outer = bool(self.accept(KW, "LEFT"))
            if left_outer:
                self.accept(KW, "OUTER")
            else:
                self.accept(KW, "INNER")
            self.expect(KW, "JOIN")
            join_table = self.expect_ident()
            join_alias = self.current.value if self.check(IDENT) else None
            if join_alias:
                self.advance()
            self.expect(KW, "ON")
            left = self.parse_column_ref()
            self.expect(PUNCT, "=")
            right = self.parse_column_ref()
            joins.append(
                ast.Join(join_table, join_alias, left, right, left_outer)
            )
        where = self.parse_where()
        group_by = []
        having = None
        if self.accept(KW, "GROUP"):
            self.expect(KW, "BY")
            group_by.append(self.parse_column_ref())
            while self.accept(PUNCT, ","):
                group_by.append(self.parse_column_ref())
            if self.accept(KW, "HAVING"):
                having = self.parse_expr()
        order_by = []
        if self.accept(KW, "ORDER"):
            self.expect(KW, "BY")
            while True:
                column = self.parse_column_ref()
                descending = bool(self.accept(KW, "DESC"))
                if not descending:
                    self.accept(KW, "ASC")
                order_by.append(ast.OrderItem(column, descending))
                if not self.accept(PUNCT, ","):
                    break
        limit = None
        if self.accept(KW, "LIMIT"):
            limit = self.parse_primary()
        return ast.Select(
            columns=tuple(columns),
            table=table,
            alias=alias,
            distinct=distinct,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
        )

    def parse_insert(self) -> ast.Insert:
        self.expect(KW, "INSERT")
        self.expect(KW, "INTO")
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        columns = [self.expect_ident()]
        while self.accept(PUNCT, ","):
            columns.append(self.expect_ident())
        self.expect(PUNCT, ")")
        self.expect(KW, "VALUES")
        rows = []
        while True:
            self.expect(PUNCT, "(")
            row = [self.parse_expr()]
            while self.accept(PUNCT, ","):
                row.append(self.parse_expr())
            self.expect(PUNCT, ")")
            if len(row) != len(columns):
                raise SQLError(
                    f"INSERT has {len(columns)} columns but {len(row)} values"
                )
            rows.append(tuple(row))
            if not self.accept(PUNCT, ","):
                break
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def parse_update(self) -> ast.Update:
        self.expect(KW, "UPDATE")
        table = self.expect_ident()
        self.expect(KW, "SET")
        assignments = []
        while True:
            column = self.expect_ident()
            self.expect(PUNCT, "=")
            assignments.append((column, self.parse_expr()))
            if not self.accept(PUNCT, ","):
                break
        return ast.Update(
            table=table, assignments=tuple(assignments), where=self.parse_where()
        )

    def parse_delete(self) -> ast.Delete:
        self.expect(KW, "DELETE")
        self.expect(KW, "FROM")
        table = self.expect_ident()
        return ast.Delete(table=table, where=self.parse_where())

    def parse_create(self) -> Any:
        self.expect(KW, "CREATE")
        if self.accept(KW, "TABLE"):
            table = self.expect_ident()
            self.expect(PUNCT, "(")
            columns = [self.parse_create_column()]
            while self.accept(PUNCT, ","):
                columns.append(self.parse_create_column())
            self.expect(PUNCT, ")")
            return ast.CreateTable(table=table, columns=tuple(columns))
        self.expect(KW, "INDEX")
        name = self.expect_ident()
        self.expect(KW, "ON")
        table = self.expect_ident()
        self.expect(PUNCT, "(")
        column = self.expect_ident()
        self.expect(PUNCT, ")")
        return ast.CreateIndex(name=name, table=table, column=column)

    def parse_create_column(self) -> ast.CreateColumn:
        name = self.expect_ident()
        type_token = self.current
        if type_token.kind != KW or type_token.value not in (
            "INT", "FLOAT", "TEXT", "BOOL",
        ):
            raise SQLError(f"expected column type, found {type_token!r}")
        self.advance()
        primary_key = not_null = False
        references = None
        while True:
            if self.accept(KW, "PRIMARY"):
                self.expect(KW, "KEY")
                primary_key = True
            elif self.accept(KW, "NOT"):
                self.expect(KW, "NULL")
                not_null = True
            elif self.accept(KW, "REFERENCES"):
                references = self.expect_ident()
            else:
                break
        return ast.CreateColumn(
            name=name, type=str(type_token.value),
            primary_key=primary_key, not_null=not_null, references=references,
        )

    def parse_where(self) -> Optional[Any]:
        if self.accept(KW, "WHERE"):
            return self.parse_expr()
        return None

    # -- expressions ------------------------------------------------------------------
    # Precedence: OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < +- < */ < unary.

    def parse_expr(self) -> Any:
        return self.parse_or()

    def parse_or(self) -> Any:
        node = self.parse_and()
        while self.accept(KW, "OR"):
            node = ast.BinOp("OR", node, self.parse_and())
        return node

    def parse_and(self) -> Any:
        node = self.parse_not()
        while self.accept(KW, "AND"):
            node = ast.BinOp("AND", node, self.parse_not())
        return node

    def parse_not(self) -> Any:
        if self.accept(KW, "NOT"):
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Any:
        node = self.parse_additive()
        negated = bool(self.accept(KW, "NOT"))
        if self.accept(KW, "IN"):
            self.expect(PUNCT, "(")
            if self.check(KW, "SELECT"):
                subquery = ast.Subquery(self.parse_select())
                self.expect(PUNCT, ")")
                return ast.InList(node, (subquery,), negated)
            items = [self.parse_expr()]
            while self.accept(PUNCT, ","):
                items.append(self.parse_expr())
            self.expect(PUNCT, ")")
            return ast.InList(node, tuple(items), negated)
        if self.accept(KW, "BETWEEN"):
            low = self.parse_additive()
            self.expect(KW, "AND")
            high = self.parse_additive()
            return ast.Between(node, low, high, negated)
        if self.accept(KW, "LIKE"):
            return ast.Like(node, self.parse_additive(), negated)
        if self.accept(KW, "IS"):
            negated = bool(self.accept(KW, "NOT"))
            self.expect(KW, "NULL")
            return ast.IsNull(node, negated)
        if negated:
            raise SQLError("NOT must be followed by IN/BETWEEN/LIKE")
        for op in ("<=", ">=", "<>", "!=", "=", "<", ">"):
            if self.accept(PUNCT, op):
                canonical = "<>" if op == "!=" else op
                return ast.BinOp(canonical, node, self.parse_additive())
        return node

    def parse_additive(self) -> Any:
        node = self.parse_multiplicative()
        while True:
            if self.accept(PUNCT, "+"):
                node = ast.BinOp("+", node, self.parse_multiplicative())
            elif self.accept(PUNCT, "-"):
                node = ast.BinOp("-", node, self.parse_multiplicative())
            else:
                return node

    def parse_multiplicative(self) -> Any:
        node = self.parse_unary()
        while True:
            if self.accept(PUNCT, "*"):
                node = ast.BinOp("*", node, self.parse_unary())
            elif self.accept(PUNCT, "/"):
                node = ast.BinOp("/", node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Any:
        if self.accept(PUNCT, "-"):
            return ast.UnaryOp("NEG", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Any:
        token = self.current
        if token.kind == NUMBER or token.kind == STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.kind == PARAM:
            self.advance()
            index = self.param_count
            self.param_count += 1
            return ast.Param(index)
        if token.kind == KW and token.value in ("TRUE", "FALSE"):
            self.advance()
            return ast.Literal(token.value == "TRUE")
        if token.kind == KW and token.value == "NULL":
            self.advance()
            return ast.Literal(None)
        if token.kind == KW and token.value in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            self.advance()
            self.expect(PUNCT, "(")
            if token.value == "COUNT" and self.accept(PUNCT, "*"):
                arg = None
            else:
                arg = self.parse_expr()
            self.expect(PUNCT, ")")
            return ast.Aggregate(str(token.value), arg)
        if token.kind == PUNCT and token.value == "(":
            self.advance()
            if self.check(KW, "SELECT"):
                node = ast.Subquery(self.parse_select())
            else:
                node = self.parse_expr()
            self.expect(PUNCT, ")")
            return node
        if token.kind == IDENT:
            return self.parse_column_ref()
        raise SQLError(f"unexpected token {token!r} in expression in {self.sql!r}")

    def parse_column_ref(self) -> ast.Column:
        first = self.expect_ident()
        if self.accept(PUNCT, "."):
            return ast.Column(name=self.expect_ident(), table=first)
        return ast.Column(name=first)


def parse(sql: str) -> Any:
    """Parse one SQL statement into an AST node."""
    return _Parser(sql).parse()


_CACHE: dict[str, Any] = {}
_CACHE_LIMIT = 4096
#: id(statement) -> (statement, plans) for every statement in ``_CACHE``.
#: ``plans`` is filled lazily by :func:`repro.sql.plan.plan_for`; the slots
#: are cleared with the cache, so plans never outnumber or outlive it.
_PLAN_SLOTS: dict[int, tuple[Any, dict]] = {}


def parse_cached(sql: str) -> Any:
    """Parse with memoisation (statements repeat heavily in workloads)."""
    statement = _CACHE.get(sql)
    if statement is None:
        statement = parse(sql)
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.clear()
            _PLAN_SLOTS.clear()
        _CACHE[sql] = statement
        _PLAN_SLOTS[id(statement)] = (statement, {})
    return statement
