"""Tokenizer for the SQL subset."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.errors import ReproError


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed."""


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    END = "end"


KEYWORDS = {
    "SELECT",
    "DISTINCT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "ORDER",
    "LIMIT",
    "AND",
    "OR",
    "NOT",
    "BETWEEN",
    "IN",
    "LIKE",
    "AS",
    "JOIN",
    "INNER",
    "ON",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "AVG",
    "OPTION",
    "CONFIDENCE",
}

#: What ``str.isdigit`` accepts: the decimal digits ``\\d`` matches plus
#: the superscript, subscript, circled and similar digits it does not.
_DIGIT = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    r"\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    r"\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a]"
)

#: One alternative per token kind, tried in this order at each position;
#: the group that matched names the kind. A dot belongs to a number only
#: between digits or before one (``1.`` and ``a.b`` split), an exponent
#: only with decimal digits after it (``1e5``, ``2.5E-3``; ``1e`` and
#: ``1ex`` split before the ``e``), two-character operators come before
#: their prefixes, and ``illegal`` takes whatever nothing else did — a
#: stray quote or a character outside the grammar.
_SCANNER = re.compile(
    r"\s*(?:"
    r"'(?P<string>[^']*)'"
    rf"|(?P<number>(?:{_DIGIT}+(?:\.{_DIGIT}+)?|\.{_DIGIT}+)(?:[eE][+-]?\d+)?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<operator><=|>=|<>|!=|[=<>+\-*/])"
    r"|(?P<punctuation>[(),.])"
    r"|(?P<illegal>\S))"
)

_KINDS = {
    "number": TokenKind.NUMBER,
    "operator": TokenKind.OPERATOR,
    "punctuation": TokenKind.PUNCTUATION,
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word


def tokenize(sql: str) -> list[Token]:
    """Split ``sql`` into tokens; raises :class:`SqlSyntaxError`."""
    tokens: list[Token] = []
    for match in _SCANNER.finditer(sql):
        group = match.lastgroup
        text = match.group(group)
        position = match.start(group)
        if group == "word":
            # Numeric letters (``½``, ``Ⅷ``) continue a word, as
            # ``str.isalnum`` has it; only a letter or ``_`` starts one.
            if not (text[0].isalpha() or text[0] == "_"):
                _reject(text[0], position)
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, position))
            else:
                tokens.append(Token(TokenKind.IDENTIFIER, text, position))
        elif group == "illegal":
            _reject(text, position)
        elif group == "string":
            tokens.append(Token(TokenKind.STRING, text, position - 1))
        else:
            tokens.append(Token(_KINDS[group], text, position))
    tokens.append(Token(TokenKind.END, "", len(sql)))
    return tokens


def _reject(character: str, position: int):
    if character == "'":
        raise SqlSyntaxError(f"unterminated string literal at {position}")
    raise SqlSyntaxError(
        f"unexpected character {character!r} at position {position}"
    )
