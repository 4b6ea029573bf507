"""Concrete syntax for the strategy logic.

Formula connectives, loosest first: ``<->``, ``->`` (right-associative),
``|``, ``&``, then unary (``~``, ``[p]``, ``<p>``) and atoms.  Program
operators, loosest first: ``+``, ``;``, then postfix ``*`` and primaries.
Tests and modal operators bind to the following unary formula.

A parenthesized comma-free expression is a grouped formula/program; with
commas it is a strategy vector such as ``(c,??,!!)``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .coalition import CLAnd, CLAtom, CLBox, CLFormula, CLNot, CLTop, cl_disj
from .syntax import (
    ADV,
    CUR,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Diamond,
    Formula,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    Program,
    Seq,
    Signature,
    Star,
    Test,
    Top,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
)
from .properties import payoff_geq, payoff_gt


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_PAYOFF_NAME = re.compile(r"u([0-9]+)\Z")
_AGENT_NAME = re.compile(r"ag([0-9]+)\Z")

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


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token(op, op, line, col))
        elif kind == "newline":
            line += 1
            line_start = pos
        elif kind == "unterminated":
            raise ParseError("unterminated string", line, col)
        elif kind != "space":
            tokens.append(_Token(kind, m[kind], line, col))
    if pos < len(text):
        raise ParseError(f"stray character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Group(NamedTuple):
    """An open parenthesized group: `finish` turns the group's expression
    into the operand it stands for (applying the prefixes read before the
    '(', or the postfix stars after the ')')."""

    finish: object


def _apply_prefixes(prefixes: list, node):
    """Apply prefix constructors, read outermost first, innermost first."""
    while prefixes:
        node = prefixes.pop()(node)
    return node


class _Parser:
    def __init__(self, text: str, signature: Signature):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = signature

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept(self, kind: str) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {found!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def _fail(self, message: str):
        tok = self._peek()
        raise ParseError(message, tok.line, tok.col)

    def _finish(self, result):
        tok = self._peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return result

    # -- shared pieces -----------------------------------------------------

    def _rational(self) -> Fraction:
        negative = self._accept("-") is not None
        num = int(self._expect("INT", "a number").text)
        den = 1
        if self._accept("/"):
            tok = self._expect("INT", "a denominator")
            den = int(tok.text)
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.col)
        value = Fraction(num, den)
        return -value if negative else value

    def _name_or_string(self, what: str) -> str:
        tok = self._peek()
        if tok.kind in ("NAME", "STRING"):
            return self._next().text
        self._fail(f"expected {what}")

    def _vector_ahead(self) -> bool:
        # A vector is "(" term ("," term)+ ")" with terms that are names,
        # ??, or !!; anything else after "(" is a grouped expression.
        i = self.pos
        if self.tokens[i].kind != "(":
            return False
        i += 1
        commas = 0
        while True:
            if self.tokens[i].kind not in ("NAME", "??", "!!"):
                return False
            i += 1
            if self.tokens[i].kind == ",":
                commas += 1
                i += 1
                continue
            return self.tokens[i].kind == ")" and commas >= 1

    def _group_ahead(self) -> bool:
        """Read the '(' of a parenthesized group, if one comes next."""
        if self.tokens[self.pos].kind != "(" or self._vector_ahead():
            return False
        self.pos += 1
        return True

    def _vector(self) -> Vector:
        open_tok = self._expect("(", "a vector")
        terms = []
        while True:
            tok = self._next()
            pos = len(terms)
            if pos >= self.sig.n:
                raise ParseError(
                    f"vector has more than {self.sig.n} positions", tok.line, tok.col
                )
            if tok.kind == "??":
                terms.append(ADV)
            elif tok.kind == "!!":
                terms.append(CUR)
            elif tok.kind == "NAME":
                if tok.text not in self.sig.strategy_sets[pos]:
                    raise ParseError(
                        f"player {pos + 1} has no strategy named {tok.text!r}",
                        tok.line,
                        tok.col,
                    )
                terms.append(Concrete(tok.text))
            else:
                raise ParseError(
                    f"expected a strategy term, found {tok.text!r}", tok.line, tok.col
                )
            if self._accept(","):
                continue
            self._expect(")", "',' or ')' in a vector")
            break
        if len(terms) != self.sig.n:
            raise ParseError(
                f"vector has {len(terms)} positions for {self.sig.n} players",
                open_tok.line,
                open_tok.col,
            )
        return Vector(terms)

    def _player_number(self, digits: str, tok: _Token) -> int:
        player = int(digits)
        if not 1 <= player <= self.sig.n:
            raise ParseError(f"no player {player} in scope", tok.line, tok.col)
        return player

    def _winner_name(self) -> str:
        self._expect("(", "'('")
        tok = self._peek()
        name = self._name_or_string("an alternative name")
        if self.sig.alternatives is None:
            raise ParseError("this game has no winner vocabulary", tok.line, tok.col)
        if name not in self.sig.alternatives:
            raise ParseError(f"unknown alternative {name!r}", tok.line, tok.col)
        self._expect(")", "')'")
        return name

    # -- formulas ----------------------------------------------------------

    def _infix(self, operand, operators: dict, opened: _Group | None = None):
        """Operands joined by binary operators, grouped by precedence and by
        parentheses from explicit stacks, so long chains and deep nesting
        never recurse.  `operators` maps a token to (binding strength, node,
        right-associative).  `operand` returns a node, or a `_Group` once it
        has read the '(' of a parenthesized group; the group is then parsed
        here and finished at its ')'.  With `opened`, a group whose '(' the
        caller read, the parse ends at that group's ')'."""
        out: list = []
        pending: list = [] if opened is None else [opened]
        while True:
            item = operand()
            if type(item) is _Group:
                pending.append(item)
                continue
            out.append(item)
            while (op := operators.get(self.tokens[self.pos].kind)) is None:
                # The chain ends here: it closes the innermost open group,
                # or it is the whole expression.
                while pending and type(pending[-1]) is not _Group:
                    right = out.pop()
                    out[-1] = pending.pop()[1](out[-1], right)
                if not pending:
                    return out[0]
                self._expect(")", "')'")
                out[-1] = pending.pop().finish(out[-1])
                if opened is not None and not pending:
                    return out[0]
            self.pos += 1
            # Pending operators that bind tighter, or as tight when `op`
            # associates to the left, take their operands first.
            while pending and type(pending[-1]) is not _Group and (
                pending[-1][0] > op[0] or pending[-1][0] == op[0] and not op[2]
            ):
                right = out.pop()
                out[-1] = pending.pop()[1](out[-1], right)
            pending.append(op)

    def formula(self) -> Formula:
        return self._infix(self._formula_unary, _FORMULA_OPS)

    def _formula_unary(self) -> Formula | _Group:
        # Prefixes are collected in a loop and applied innermost first, so
        # long prefix runs never recurse.
        prefixes = []
        while (kind := self.tokens[self.pos].kind) in ("~", "[", "<"):
            self.pos += 1
            if kind == "~":
                prefixes.append(Not)
            elif kind == "[":
                prefixes.append(partial(Box, self.program()))
                self._expect("]", "']'")
            else:
                prefixes.append(partial(Diamond, self.program()))
                self._expect(">", "'>'")
        if self._group_ahead():
            return _Group(partial(_apply_prefixes, prefixes))
        return _apply_prefixes(prefixes, self._formula_primary())

    def _formula_primary(self) -> Formula:
        tok = self._peek()
        if tok.kind == "NAME":
            if tok.text == "T":
                self._next()
                return Top()
            if tok.text == "win":
                self._next()
                return Winner(self._winner_name())
            if tok.text == "label":
                self._next()
                self._expect("(", "'('")
                text = self._name_or_string("a label")
                self._expect(")", "')'")
                return Label(text)
            m = _PAYOFF_NAME.match(tok.text)
            if m:
                self._next()
                player = self._player_number(m.group(1), tok)
                return self._payoff_tail(player, tok)
            self._fail(f"unexpected name {tok.text!r} in a formula")
        if tok.kind == "(":
            return VectorAtom(self._vector())
        self._fail("expected a formula")

    def _payoff_tail(self, player: int, start: _Token) -> Formula:
        op = self._peek()
        if op.kind == "=":
            self._next()
            return UtilEq(player, self._rational())
        if op.kind in (">=", ">"):
            self._next()
            if self.sig.util_range is None:
                raise ParseError(
                    "utility comparisons need a known utility range",
                    start.line,
                    start.col,
                )
            value = self._rational()
            build = payoff_geq if op.kind == ">=" else payoff_gt
            return build(self.sig, player, value)
        self._fail("expected '=', '>=' or '>' after a payoff atom")

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        return self._infix(self._program_unary, _PROGRAM_OPS)

    def _program_unary(self) -> Program | _Group:
        if self._group_ahead():
            return _Group(self._stars)
        return self._stars(self._program_primary())

    def _stars(self, out: Program) -> Program:
        while self._accept("*"):
            out = Star(out)
        return out

    def _program_primary(self) -> Program:
        tok = self._peek()
        if tok.kind == "?":
            self._next()
            body = self._formula_unary()
            if type(body) is _Group:
                body = self._infix(self._formula_unary, _FORMULA_OPS, body)
            return Test(body)
        if tok.kind == "(":
            return Vec(self._vector())
        if tok.kind == "NAME":
            m = _AGENT_NAME.match(tok.text)
            if m:
                self._next()
                player = self._player_number(m.group(1), tok)
                if self._accept("^"):
                    return AgentConv(player)
                return Agent(player)
            self._fail(f"unexpected name {tok.text!r} in a program")
        self._fail("expected a program")

    # -- coalition logic ---------------------------------------------------

    def cl_formula(self) -> CLFormula:
        return self._infix(self._cl_unary, _CL_OPS)

    def _cl_unary(self) -> CLFormula | _Group:
        prefixes = []
        while True:
            if self._accept("~"):
                prefixes.append(CLNot)
                continue
            if not self._accept("["):
                break
            name = self._expect("NAME", "'C'")
            if name.text != "C":
                raise ParseError("expected 'C' to open a coalition", name.line, name.col)
            self._expect("{", "'{'")
            members: list[int] = []
            if self._peek().kind != "}":
                while True:
                    tok = self._expect("INT", "a player number")
                    player = self._player_number(tok.text, tok)
                    if player in members:
                        raise ParseError(
                            f"duplicate coalition member {player}", tok.line, tok.col
                        )
                    members.append(player)
                    if self._accept(","):
                        continue
                    break
            self._expect("}", "'}'")
            self._expect("]", "']'")
            prefixes.append(partial(CLBox, frozenset(members)))
        if self._accept("("):
            return _Group(partial(_apply_prefixes, prefixes))
        return _apply_prefixes(prefixes, self._cl_primary())

    def _cl_primary(self) -> CLFormula:
        tok = self._peek()
        if tok.kind == "NAME":
            if tok.text == "T":
                self._next()
                return CLTop()
            if tok.text == "win":
                self._next()
                return CLAtom(Winner(self._winner_name()))
            if tok.text == "label":
                self._next()
                self._expect("(", "'('")
                text = self._name_or_string("a label")
                self._expect(")", "')'")
                return CLAtom(Label(text))
            m = _PAYOFF_NAME.match(tok.text)
            if m:
                self._next()
                player = self._player_number(m.group(1), tok)
                return self._cl_payoff_tail(player, tok)
            self._fail(f"unexpected name {tok.text!r} in a coalition formula")
        self._fail("expected a coalition formula")

    def _cl_payoff_tail(self, player: int, start: _Token) -> CLFormula:
        op = self._peek()
        if op.kind == "=":
            self._next()
            return CLAtom(UtilEq(player, self._rational()))
        if op.kind in (">=", ">"):
            self._next()
            if self.sig.util_range is None:
                raise ParseError(
                    "utility comparisons need a known utility range",
                    start.line,
                    start.col,
                )
            value = self._rational()
            if op.kind == ">=":
                keep = [w for w in self.sig.util_range if w >= value]
            else:
                keep = [w for w in self.sig.util_range if w > value]
            return cl_disj([CLAtom(UtilEq(player, w)) for w in keep])
        self._fail("expected '=', '>=' or '>' after a payoff atom")


# Binary operators: token -> (binding strength, node, right-associative).
_FORMULA_OPS = {
    "<->": (0, Iff, True),
    "->": (1, Implies, True),
    "|": (2, Or, False),
    "&": (3, And, False),
}
_PROGRAM_OPS = {"+": (0, Choice, False), ";": (1, Seq, False)}
_CL_OPS = {"|": (0, lambda a, b: cl_disj([a, b]), False), "&": (1, CLAnd, False)}


def parse(text: str, signature: Signature, kind: str = "formula"):
    """Parse concrete syntax; `kind` is 'formula', 'program', or 'cl'."""
    parser = _Parser(text, signature)
    if kind == "formula":
        return parser._finish(parser.formula())
    if kind == "program":
        return parser._finish(parser.program())
    if kind == "cl":
        return parser._finish(parser.cl_formula())
    raise ValueError(f"unknown parse kind {kind!r}")


def parse_formula(text: str, signature: Signature) -> Formula:
    return parse(text, signature, "formula")


def parse_program(text: str, signature: Signature) -> Program:
    return parse(text, signature, "program")


def parse_cl(text: str, signature: Signature) -> CLFormula:
    return parse(text, signature, "cl")
