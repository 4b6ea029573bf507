"""The token-by-token lexer that `stratlogic.parser` used to run, kept as the
reference for its flat-token lexer.

It matches one token class per regex alternative and tracks the line and
column of every token as it goes, so positions here are computed by an
independent walk over the text.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from stratlogic.parser import ParseError


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# One alternative per token class, tried in order; multi-character operators
# come before the single characters they start with.
_TOKEN = re.compile(
    r"""(?P<newline>\n)
    |(?P<space>[ \t\r]+)
    |"(?P<STRING>[^"]*)"
    |(?P<unterminated>")
    |(?P<op><->|\?\?|!!|->|>=|[()\[\]{}<>,;+*?~&|=^/-])
    |(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<INT>[0-9]+)""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    # A column counts from the last newline outside a string literal.
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:  # no alternative matches at pos
            break
        kind = m.lastgroup
        col = pos - line_start + 1
        pos = m.end()
        if kind == "op":
            op = m[kind]
            tokens.append(Token(op, op, line, col))
        elif kind == "newline":
            line += 1
            line_start = pos
        elif kind == "unterminated":
            raise ParseError("unterminated string", line, col)
        elif kind != "space":
            tokens.append(Token(kind, m[kind], line, col))
    if pos < len(text):
        raise ParseError(f"stray character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens
