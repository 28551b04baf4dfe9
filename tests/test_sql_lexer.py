"""Unit tests for the SQL tokenizer.

The scanner is one compiled pattern; the character-at-a-time loop it
replaced lives on below as :func:`reference_tokenize`, and a
differential test holds the two to the same tokens (kind, text,
position) or the same error text on token soup and on the statements
the ``repro.workloads`` generators produce.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import Token, TokenKind, lexer, query_to_sql, tokenize
from repro.sql.lexer import KEYWORDS, SqlSyntaxError
from repro.workloads import (
    QUERY_BATTERY,
    PartCorrelationTemplate,
    PriceMarkupTemplate,
    PromotionBandTemplate,
    ShippingDatesTemplate,
    SnowflakeChainTemplate,
    StarJoinTemplate,
)

_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/")
_PUNCTUATION = "(),."


def reference_tokenize(sql: str) -> list[Token]:
    """The tokenizer as a character loop (``str`` predicates decide what
    a space, a digit and a letter are)."""
    tokens: list[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            end = sql.find("'", i + 1)
            if end < 0:
                raise SqlSyntaxError(f"unterminated string literal at {i}")
            tokens.append(Token(TokenKind.STRING, sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < length and sql[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < length and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    # a dot followed by a non-digit is punctuation
                    if j + 1 >= length or not sql[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            # an exponent needs decimal digits after its optional sign
            k = j + 1
            if k < length and sql[j] in "eE" and sql[k] in "+-":
                k += 1
            if j < length and sql[j] in "eE" and k < length and sql[k].isdecimal():
                j = k
                while j < length and sql[j].isdecimal():
                    j += 1
            tokens.append(Token(TokenKind.NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENTIFIER, word, i))
            i = j
            continue
        matched = False
        for operator in _OPERATORS:
            if sql.startswith(operator, i):
                tokens.append(Token(TokenKind.OPERATOR, operator, i))
                i += len(operator)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(TokenKind.PUNCTUATION, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenKind.END, "", length))
    return tokens


def outcome(lexer, sql: str):
    """The token list, or the error a caller would see."""
    try:
        return lexer(sql)
    except SqlSyntaxError as error:
        return str(error)


def kinds(sql):
    return [t.kind for t in tokenize(sql)[:-1]]


def texts(sql):
    return [t.text for t in tokenize(sql)[:-1]]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        tokens = tokenize("lineitem l_shipdate")
        assert [t.text for t in tokens[:-1]] == ["lineitem", "l_shipdate"]
        assert all(t.kind is TokenKind.IDENTIFIER for t in tokens[:-1])

    def test_numbers(self):
        assert texts("42 3.14 .5") == ["42", "3.14", ".5"]
        assert kinds("42 3.14") == [TokenKind.NUMBER, TokenKind.NUMBER]

    def test_exponent_numbers(self):
        assert texts("1e-05 1E+20 2.5e-300 .5e3") == [
            "1e-05", "1E+20", "2.5e-300", ".5e3",
        ]
        assert texts("1e 1ex") == ["1", "e", "1", "ex"]

    def test_qualified_column_dots(self):
        assert texts("a.b") == ["a", ".", "b"]

    def test_number_then_dot_identifier(self):
        # "1.x" must not swallow the dot into the number
        assert texts("t1.x") == ["t1", ".", "x"]

    def test_strings(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "hello world"

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("'oops")

    def test_operators(self):
        assert texts("<= >= <> != = < >") == ["<=", ">=", "<>", "!=", "=", "<", ">"]

    def test_arithmetic_operators(self):
        assert texts("+ - * /") == ["+", "-", "*", "/"]

    def test_punctuation(self):
        assert texts("( ) ,") == ["(", ")", ","]

    def test_end_token(self):
        assert tokenize("x")[-1].kind is TokenKind.END

    def test_unexpected_character_raises(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("a ; b")

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3

    def test_is_keyword_helper(self):
        token = Token(TokenKind.KEYWORD, "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")

    def test_empty_input(self):
        tokens = tokenize("   ")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.END


class TestAgainstCharacterLoop:
    """Token for token, error for error."""

    #: Where the two could part: dots around digits, operator prefixes,
    #: quotes, and characters ``str`` and ``re`` might class differently
    #: (``²`` is a digit to ``str.isdigit`` but not to ``\\d``; ``½`` and
    #: ``Ⅷ`` continue a word but cannot start one; ``\x1c`` and ``\xa0``
    #: are spaces).
    SOUP = st.lists(
        st.one_of(
            st.sampled_from(
                [
                    "1", "12", ".", "..", "1.", ".5", "1.2.3", "a.b", "t1.x",
                    "e", "E", "e5", "e+", "e-3", "1e5", "2.5E-300",
                    "<", ">", "=", "!", "<>", "!=", "<=", ">=", "=<", "+", "-",
                    "*", "/", "(", ")", ",", "'", "''", "'a b'", "'it", " ",
                    "\n", "\t", "\x1c", "\xa0", "\u2003", "_", "_x", "select",
                    "Select", "between", "lineitem", "²", "٣", "½", "Ⅷ", "é",
                    "ß", "三", ";", "#", "\\", '"', "\x00",
                ]
            ),
            st.characters(),
            st.text(max_size=4),
        ),
        max_size=12,
    ).map("".join)

    @settings(max_examples=600, deadline=None)
    @given(sql=SOUP)
    def test_token_soup(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    def test_digits_spaces_and_letters_are_what_str_says(self):
        """The pattern's character classes against the ``str`` predicates
        over every code point, then every code point the predicates
        single out (and a spread of the rest) alone, inside a word,
        inside a number and after a dot."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        for pattern, predicate in (
            (lexer._DIGIT, str.isdigit),
            (r"\d", str.isdecimal),  # an exponent's digits
            (r"\s", str.isspace),
            (r"\w", lambda c: c.isalnum() or c == "_"),
        ):
            assert set(re.findall(pattern, every)) == set(
                filter(predicate, every)
            ), pattern
        for code, ch in enumerate(every):
            if (
                code < 0x300
                or code % 101 == 0
                or ch.isspace()
                or ch.isdigit()
                or (ch.isalnum() and not ch.isalpha())
            ):
                for sql in (ch, f"a{ch}b", f"1{ch}2", f".{ch}"):
                    assert outcome(tokenize, sql) == outcome(
                        reference_tokenize, sql
                    ), (hex(code), sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "1.", ".5", "1.2.3", "1..5", "a.b", "t1.x", "1.x", "1x", "x1",
            "a<>b", "a!=b", "a<=b", "a=<b", "a<=>b", "a!b", "''", "'a''b'",
            "'oops", "a ; b", "x'", "²", ".²", "½", "a½", "1½", "Ⅷa",
            "  ", "", "x\u2003y", "SELECT\xa0x", "1e5", "1E-05", "1e+20",
            ".5e3", "2.5e-300", "1e", "1e+", "1ex", "1e5x", "1.e5", "e5",
            "1e\u0663", "1e\u00b2", "1\u00b2e3",
        ],
    )
    def test_hand_picked(self, sql):
        assert outcome(tokenize, sql) == outcome(reference_tokenize, sql)

    def test_error_messages(self):
        assert outcome(tokenize, "ab 'oops") == "unterminated string literal at 3"
        assert outcome(tokenize, "a ; b") == "unexpected character ';' at position 2"
        assert outcome(tokenize, "a ½") == "unexpected character '½' at position 2"

    @settings(max_examples=150, deadline=None)
    @given(
        template=st.sampled_from(
            [
                ShippingDatesTemplate(),
                PartCorrelationTemplate(),
                StarJoinTemplate(),
                SnowflakeChainTemplate(),
                PriceMarkupTemplate(),
                PromotionBandTemplate(),
            ]
        ),
        param=st.integers(0, 1000),
        hint=st.sampled_from([None, 0.5, 80, "conservative"]),
        mangle=st.sampled_from([str, str.lower, str.upper]),
    )
    def test_generated_statements(self, template, param, hint, mangle):
        template.hint = hint
        sql = mangle(query_to_sql(template.instantiate(param)))
        assert tokenize(sql) == reference_tokenize(sql)

    @pytest.mark.parametrize("name", sorted(QUERY_BATTERY))
    def test_battery_statements(self, name):
        sql = QUERY_BATTERY[name]
        assert tokenize(sql) == reference_tokenize(sql)
