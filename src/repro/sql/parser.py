"""Recursive-descent parser: SQL text → :class:`SPJQuery`.

Standard precedence climbing: ``OR`` < ``AND`` < ``NOT`` < comparisons
(including ``BETWEEN``/``IN``/``LIKE``) < additive < multiplicative <
primary. Parenthesized subexpressions re-enter the full grammar, so
``(a + 1) > 2`` and ``(x > 1 AND y < 2) OR z = 3`` both parse.
"""

from __future__ import annotations

from repro.catalog import Database
from repro.engine import AggregateSpec
from repro.expressions import Between, ColumnRef, Expr, Literal, col
from repro.expressions.expr import (
    And,
    Comparison,
    InList,
    Not,
    Or,
    StringContains,
    StringStartsWith,
)

from repro.optimizer import SPJQuery
from repro.sql.lexer import SqlSyntaxError, Token, TokenKind, tokenize

#: Expression node types that produce booleans (usable as conditions).
_BOOLEAN_NODES = (
    And,
    Or,
    Not,
    Comparison,
    Between,
    InList,
    StringContains,
    StringStartsWith,
)

_AGG_KEYWORDS = {"SUM", "COUNT", "MIN", "MAX", "AVG"}
_COMPARISON_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = tokenize(sql)
        self.index = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        token = self.advance()
        if not (token.kind is TokenKind.KEYWORD and token.text == word):
            raise SqlSyntaxError(
                f"expected {word} at position {token.position}, got {token.text!r}"
            )

    def accept_punctuation(self, text: str) -> bool:
        token = self.peek()
        if token.kind is TokenKind.PUNCTUATION and token.text == text:
            self.advance()
            return True
        return False

    def expect_punctuation(self, text: str) -> None:
        token = self.advance()
        if not (token.kind is TokenKind.PUNCTUATION and token.text == text):
            raise SqlSyntaxError(
                f"expected {text!r} at position {token.position}, got {token.text!r}"
            )

    def expect_identifier(self) -> str:
        token = self.advance()
        if token.kind is not TokenKind.IDENTIFIER:
            raise SqlSyntaxError(
                f"expected identifier at position {token.position}, got {token.text!r}"
            )
        return token.text

    # -- query ----------------------------------------------------------
    def parse_query(self) -> SPJQuery:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select_star, plain_columns, aggregates = self._select_list()

        self.expect_keyword("FROM")
        tables, on_conditions = self._table_list()

        predicate = None
        if self.accept_keyword("WHERE"):
            predicate = self.parse_boolean_expression()

        group_by: list[str] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._column_name())
            while self.accept_punctuation(","):
                group_by.append(self._column_name())

        order_by: list[str] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._column_name())
            while self.accept_punctuation(","):
                order_by.append(self._column_name())

        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind is not TokenKind.NUMBER or not token.text.isdecimal():
                raise SqlSyntaxError(
                    f"LIMIT expects an integer at position {token.position}"
                )
            limit = int(token.text)

        hint = None
        if self.accept_keyword("OPTION"):
            self.expect_punctuation("(")
            self.expect_keyword("CONFIDENCE")
            hint = self._confidence_value()
            self.expect_punctuation(")")

        token = self.peek()
        if token.kind is not TokenKind.END:
            raise SqlSyntaxError(
                f"unexpected trailing input at position {token.position}: "
                f"{token.text!r}"
            )

        if distinct:
            if select_star or aggregates or group_by:
                raise SqlSyntaxError(
                    "SELECT DISTINCT requires an explicit column list and "
                    "no aggregates or GROUP BY"
                )
            # DISTINCT is deduplication: group by the selected columns.
            group_by = list(plain_columns)
            plain_columns = []

        projection = None
        if not select_star and not aggregates and not distinct:
            projection = plain_columns
        if aggregates and plain_columns and not group_by:
            raise SqlSyntaxError(
                "non-aggregated select columns require a GROUP BY clause"
            )
        if aggregates and plain_columns:
            missing = [c for c in plain_columns if c not in group_by]
            if missing:
                raise SqlSyntaxError(
                    f"select columns not in GROUP BY: {missing}"
                )

        return SPJQuery(
            tables,
            predicate,
            projection=projection,
            aggregates=aggregates,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            hint=hint,
        ), on_conditions

    def _select_list(self):
        if self.peek().kind is TokenKind.OPERATOR and self.peek().text == "*":
            self.advance()
            return True, [], []
        plain: list[str] = []
        aggregates: list[AggregateSpec] = []
        while True:
            token = self.peek()
            if token.kind is TokenKind.KEYWORD and token.text in _AGG_KEYWORDS:
                aggregates.append(self._aggregate())
            else:
                plain.append(self._column_name())
            if not self.accept_punctuation(","):
                break
        return False, plain, aggregates

    def _aggregate(self) -> AggregateSpec:
        func = self.advance().text.lower()
        self.expect_punctuation("(")
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text == "*":
            self.advance()
            column = "*"
        else:
            column = self._column_name()
        self.expect_punctuation(")")
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        else:
            alias = f"{func}_{column.replace('.', '_').replace('*', 'all')}"
        return AggregateSpec(func, column, alias)

    def _column_name(self) -> str:
        name = self.expect_identifier()
        if self.accept_punctuation("."):
            return f"{name}.{self.expect_identifier()}"
        return name

    def _table_list(self):
        tables = [self.expect_identifier()]
        on_conditions: list[tuple[str, str]] = []
        while True:
            if self.accept_punctuation(","):
                tables.append(self.expect_identifier())
                continue
            if self.peek().is_keyword("INNER") or self.peek().is_keyword("JOIN"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                tables.append(self.expect_identifier())
                if self.accept_keyword("ON"):
                    left = self._column_name()
                    token = self.advance()
                    if token.text != "=":
                        raise SqlSyntaxError(
                            f"JOIN ... ON supports equality only, got {token.text!r}"
                        )
                    right = self._column_name()
                    on_conditions.append((left, right))
                continue
            break
        return tables, on_conditions

    def _confidence_value(self):
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            return float(token.text) / 100.0 if float(token.text) > 1 else float(token.text)
        if token.kind is TokenKind.IDENTIFIER:
            return token.text.lower()
        raise SqlSyntaxError(
            f"expected a percentage or level name at position {token.position}"
        )

    # -- expressions ------------------------------------------------------
    def parse_expression(self) -> Expr:
        return self._or_expression()

    def parse_boolean_expression(self) -> Expr:
        expression = self._or_expression()
        return self._require_boolean(expression)

    def _require_boolean(self, expression: Expr) -> Expr:
        if not isinstance(expression, _BOOLEAN_NODES):
            raise SqlSyntaxError(
                f"expected a boolean condition, got value expression "
                f"{expression!r}"
            )
        return expression

    def _or_expression(self) -> Expr:
        left = self._and_expression()
        while self.accept_keyword("OR"):
            left = self._require_boolean(left) | self._require_boolean(
                self._and_expression()
            )
        return left

    def _and_expression(self) -> Expr:
        left = self._not_expression()
        while self.accept_keyword("AND"):
            left = self._require_boolean(left) & self._require_boolean(
                self._not_expression()
            )
        return left

    def _not_expression(self) -> Expr:
        if self.accept_keyword("NOT"):
            return ~self._require_boolean(self._not_expression())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self.peek()

        if token.kind is TokenKind.OPERATOR and token.text in _COMPARISON_OPS:
            operator = self.advance().text
            right = self._additive()
            if operator == "=":
                return left == right
            if operator in ("!=", "<>"):
                return left != right
            if operator == "<":
                return left < right
            if operator == "<=":
                return left <= right
            if operator == ">":
                return left > right
            return left >= right

        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            if isinstance(low, Literal) and isinstance(high, Literal):
                return Between(left, low.value, high.value)
            return (left >= low) & (left <= high)

        negate = False
        if token.is_keyword("NOT"):
            # NOT here can only prefix IN or LIKE (boolean NOT was
            # consumed earlier); look ahead to confirm.
            following = self.tokens[self.index + 1]
            if following.is_keyword("IN") or following.is_keyword("LIKE"):
                self.advance()
                negate = True
                token = self.peek()

        if token.is_keyword("IN"):
            self.advance()
            self.expect_punctuation("(")
            values = [self._literal_value()]
            while self.accept_punctuation(","):
                values.append(self._literal_value())
            self.expect_punctuation(")")
            expression = left.isin(values)
            return ~expression if negate else expression

        if token.is_keyword("LIKE"):
            self.advance()
            pattern_token = self.advance()
            if pattern_token.kind is not TokenKind.STRING:
                raise SqlSyntaxError(
                    f"LIKE expects a string pattern at {pattern_token.position}"
                )
            expression = self._like(left, pattern_token.text)
            return ~expression if negate else expression

        # No comparison follows. A parenthesized boolean expression
        # stands on its own; a bare value expression is returned as-is
        # so enclosing arithmetic can continue (the top-level entry
        # points reject non-boolean results).
        return left

    def _like(self, target: Expr, pattern: str) -> Expr:
        body = pattern.strip("%")
        if "%" in body or "_" in pattern:
            raise SqlSyntaxError(
                f"unsupported LIKE pattern {pattern!r}: only '%s%', 's%', "
                "and exact strings are supported"
            )
        if pattern.startswith("%") and pattern.endswith("%"):
            return target.contains(body)
        if pattern.endswith("%"):
            return target.startswith(body)
        if pattern.startswith("%"):
            raise SqlSyntaxError("suffix LIKE patterns ('%s') are not supported")
        return target == body

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("+", "-"):
                self.advance()
                right = self._multiplicative()
                left = left + right if token.text == "+" else left - right
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("*", "/"):
                self.advance()
                right = self._unary()
                left = left * right if token.text == "*" else left / right
            else:
                return left

    def _unary(self) -> Expr:
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text == "-":
            self.advance()
            operand = self._unary()
            if isinstance(operand, Literal):
                return Literal(-operand.value)
            return Literal(0) - operand
        return self._primary()

    def _primary(self) -> Expr:
        token = self.advance()
        if token.kind is TokenKind.PUNCTUATION and token.text == "(":
            inner = self.parse_expression()
            self.expect_punctuation(")")
            return inner
        if token.kind is TokenKind.NUMBER:
            return Literal(self._number(token.text))
        if token.kind is TokenKind.STRING:
            return Literal(token.text)
        if token.kind is TokenKind.IDENTIFIER:
            if self.accept_punctuation("."):
                return ColumnRef(token.text, self.expect_identifier())
            return col(token.text)
        raise SqlSyntaxError(
            f"unexpected token {token.text!r} at position {token.position}"
        )

    def _literal_value(self):
        token = self.advance()
        negate = False
        if token.kind is TokenKind.OPERATOR and token.text == "-":
            negate = True
            token = self.advance()
        if token.kind is TokenKind.NUMBER:
            value = self._number(token.text)
            return -value if negate else value
        if token.kind is TokenKind.STRING and not negate:
            return token.text
        raise SqlSyntaxError(
            f"expected a literal at position {token.position}, got {token.text!r}"
        )

    @staticmethod
    def _number(text: str):
        """An integer literal is all digits; a dot or an exponent
        (``1e-05``, the form ``repr`` gives small and large floats)
        makes a float."""
        return int(text) if text.isdecimal() else float(text)


def parse_predicate(sql: str) -> Expr:
    """Parse a standalone predicate, e.g. ``"a.x > 3 AND a.y = 'hi'"``."""
    parser = _Parser(sql)
    expression = parser.parse_boolean_expression()
    trailing = parser.peek()
    if trailing.kind is not TokenKind.END:
        raise SqlSyntaxError(
            f"unexpected trailing input at position {trailing.position}"
        )
    return expression


def parse_query(sql: str, database: Database | None = None) -> SPJQuery:
    """Parse a full SELECT statement into an :class:`SPJQuery`.

    When ``database`` is supplied, the query is validated against the
    schema and any explicit ``JOIN … ON`` conditions are checked to
    match declared foreign-key edges (the only joins the SPJ model
    supports).
    """
    query, on_conditions = _Parser(sql).parse_query()
    if database is not None:
        query.validate(database)
        edges = {
            frozenset((edge.child_column, edge.parent_column))
            for edge in query.join_edges(database)
        }
        for left, right in on_conditions:
            if frozenset((left, right)) not in edges:
                raise SqlSyntaxError(
                    f"JOIN condition {left} = {right} does not match a "
                    "declared foreign key"
                )
    return query
