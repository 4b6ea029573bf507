"""The token-by-token lexer that `stratlogic.parser` used to run, kept as the
reference for its flat-token lexer.

It matches one token class per regex alternative and tracks the line and
column of every token as it goes, so positions here are computed by an
independent walk over the text.  `merge_whole` joins its tokens into the
parser's whole modal prefix, vector and payoff tokens by walking the token
list, not the text.
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


def _abut(a: Token, b: Token) -> bool:
    """No blank lies between token `a` and the token `b` after it.  (Never
    asked of a string literal, whose text lacks its quotes.)"""
    return a.line == b.line and a.col + len(a.text) == b.col


def _vector_run(tokens: list[Token], i: int) -> int:
    """The length of the run at `i` spelling "(" term ("," term)+ ")" with
    no blank inside, or 0."""
    if tokens[i].kind != "(":
        return 0
    j, terms = i + 1, 0
    while tokens[j].kind in ("NAME", "??", "!!") and _abut(tokens[j - 1], tokens[j]):
        terms += 1
        j += 1
        if not _abut(tokens[j - 1], tokens[j]):
            return 0
        if tokens[j].kind == ")":
            return j + 1 - i if terms >= 2 else 0
        if tokens[j].kind != ",":
            return 0
        j += 1
    return 0


def _payoff_run(tokens: list[Token], i: int) -> int:
    """The length of the run at `i` spelling u<digits> "=" ["-"] INT
    ["/" INT] with no blank inside, or 0, also when a '/', a number or a
    name follows it with no blank between."""

    def glued(j: int, kind: str) -> bool:
        return tokens[j].kind == kind and _abut(tokens[j - 1], tokens[j])

    if tokens[i].kind != "NAME" or not re.fullmatch(r"u[0-9]+", tokens[i].text):
        return 0
    j = i + 1
    if not glued(j, "="):
        return 0
    j += 1
    if glued(j, "-"):
        j += 1
    if not glued(j, "INT"):
        return 0
    j += 1
    if glued(j, "/") and glued(j + 1, "INT"):
        j += 2
    if any(glued(j, kind) for kind in ("/", "INT", "NAME")):
        return 0
    return j - i


def _modal_run(tokens: list[Token], i: int) -> int:
    """The length of the run at `i` spelling "[" program "]" or "<" program
    ">" with no blank inside, where the program is a vector run or
    ag<digits> with an optional "^", or 0."""
    closing = {"[": "]", "<": ">"}.get(tokens[i].kind)
    if closing is None or not _abut(tokens[i], tokens[i + 1]):
        return 0
    j = i + 1
    vector = _vector_run(tokens, j)
    if vector:
        j += vector
    elif tokens[j].kind == "NAME" and re.fullmatch(r"ag[0-9]+", tokens[j].text):
        j += 1
        if tokens[j].kind == "^" and _abut(tokens[j - 1], tokens[j]):
            j += 1
    else:
        return 0
    if tokens[j].kind == closing and _abut(tokens[j - 1], tokens[j]):
        return j + 1 - i
    return 0


_WHOLE_KIND = {"[": "BOX", "<": "DIAMOND", "(": "VECTOR"}


def merge_whole(tokens: list[Token]) -> list[Token]:
    """The tokens with each blank-free modal prefix over a vector or an
    agent, each blank-free vector of two or more terms and each blank-free
    payoff atom joined into one BOX, DIAMOND, VECTOR or PAYOFF token, placed
    at its first token."""
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        run = _modal_run(tokens, i) or _vector_run(tokens, i) or _payoff_run(tokens, i)
        if run:
            first = tokens[i]
            kind = _WHOLE_KIND.get(first.kind, "PAYOFF")
            text = "".join(t.text for t in tokens[i : i + run])
            out.append(Token(kind, text, first.line, first.col))
            i += run
        else:
            out.append(tokens[i])
            i += 1
    return out
