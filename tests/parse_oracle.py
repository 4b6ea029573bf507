"""The fine-token parser that `stratlogic.parser` used to run, kept as the
reference for `parse`.

It reads the tokens of `lexer_oracle.tokenize`, one fine token at a time,
each with its own line and column: no whole tokens, no table of spellings,
no pieces.  `parse` must give the same tree as this parser, or the same
`ParseError`, message, line and column included.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

import lexer_oracle
from stratlogic.coalition import CLAnd, CLAtom, CLBox, CLNot, CLTop, cl_disj
from stratlogic.parser import ParseError
from stratlogic.properties import payoff_geq, payoff_gt
from stratlogic.syntax import (
    ADV, CUR, Agent, AgentConv, And, Box, Choice, Concrete, Diamond, Iff, Implies, Label,
    Not, Or, Seq, Star, Test, Top, UtilEq, Vec, Vector, VectorAtom, Winner,
)


class _Group(NamedTuple):
    """An open parenthesized group: `finish` turns the group's expression
    into the operand it stands for (applying the prefixes read before the
    '(', or the postfix stars after the ')')."""

    finish: object


def _apply_prefixes(prefixes: list, node):
    """Apply prefixes, read outermost first, innermost first."""
    for cls, argument in reversed(prefixes):
        node = cls(node) if argument is None else cls(argument, node)
    return node


class _Atoms(NamedTuple):
    noun: str
    top: object
    wrap: object
    compare: object
    vector: object


def _payoff_compare(sig, player, op, value):
    return (payoff_geq if op == ">=" else payoff_gt)(sig, player, value)


def _cl_payoff_compare(sig, player, op, value):
    keep = [w for w in sig.util_range if w > value or op == ">=" and w == value]
    return cl_disj([CLAtom(UtilEq(player, w)) for w in keep])


_FORMULA_ATOMS = _Atoms("formula", Top, lambda atom: atom, _payoff_compare, VectorAtom)
_CL_ATOMS = _Atoms("coalition formula", CLTop, CLAtom, _cl_payoff_compare, None)
_WILDCARDS = {"??": ADV, "!!": CUR}
_PREFIXES = {"~": Not, "[": Box, "<": Diamond}
_FORMULA_OPS = {"<->": (0, Iff, True), "->": (1, Implies, True), "|": (2, Or, False), "&": (3, And, False)}
_PROGRAM_OPS = {"+": (0, Choice, False), ";": (1, Seq, False)}
_CL_OPS = {"|": (0, lambda a, b: cl_disj([a, b]), False), "&": (1, CLAnd, False)}


class Parser:
    def __init__(self, text: str, signature):
        self.tokens = lexer_oracle.tokenize(text)
        self.pos = 0
        self.sig = signature

    # -- token plumbing ----------------------------------------------------

    def _accept(self, kind: str):
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def _expect(self, kind: str, what: str):
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise self._error(f"expected {what}, found {found!r}", tok)
        self.pos += 1
        return tok

    def _error(self, message: str, tok) -> ParseError:
        return ParseError(message, tok.line, tok.col)

    def _fail(self, message: str):
        raise self._error(message, self.tokens[self.pos])

    def run(self, kind: str):
        if kind == "formula":
            result = self._infix(self._formula_unary, _FORMULA_OPS)
        elif kind == "program":
            result = self.program()
        elif kind == "cl":
            result = self._infix(self._cl_unary, _CL_OPS)
        else:
            raise ValueError(f"unknown parse kind {kind!r}")
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            raise self._error(f"unexpected trailing input {tok.text!r}", tok)
        return result

    # -- shared pieces -----------------------------------------------------

    def _rational(self) -> Fraction:
        sign = "-" if self._accept("-") else ""
        tok = self._expect("INT", "a number")
        num = self._number(sign + tok.text, tok)
        if self._accept("/"):
            tok = self._expect("INT", "a denominator")
            den = self._number(tok.text, tok)
            if den == 0:
                raise self._error("zero denominator", tok)
            return Fraction(num, den)
        return Fraction(num)

    def _number(self, numeral: str, tok) -> int:
        try:
            return int(numeral)
        except ValueError:
            digits = len(numeral.lstrip("-"))
            raise self._error(f"numeral of {digits} digits is too long", tok) from None

    def _name_or_string(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok.kind in ("NAME", "STRING"):
            self.pos += 1
            return tok.text
        self._fail(f"expected {what}")

    def _group_ahead(self) -> bool:
        """Read the '(' at `pos` if it opens a group rather than a vector."""
        tokens, i = self.tokens, self.pos
        while tokens[i + 1].kind in ("NAME", "??", "!!") and tokens[i + 2].kind == ",":
            i += 2
        if i > self.pos and tokens[i + 1].kind in ("NAME", "??", "!!") and tokens[i + 2].kind == ")":
            return False
        self.pos += 1
        return True

    def _vector(self) -> Vector:
        tokens, start = self.tokens, self.pos
        end = start + 2
        while tokens[end].kind != ")":
            end += 2
        self.pos = end + 1
        n, found = self.sig.n, tokens[start + 1 : end : 2]
        terms = [
            _WILDCARDS.get(tok.text) or tok.text in strategies and Concrete(tok.text)
            for tok, strategies in zip(found, self.sig.strategy_sets)
        ]
        if not all(terms):
            k = terms.index(False)
            raise self._error(f"player {k + 1} has no strategy named {found[k].text!r}", found[k])
        if len(found) > n:
            raise self._error(f"vector has more than {n} positions", found[n])
        if len(found) < n:
            raise self._error(f"vector has {len(found)} positions for {n} players", tokens[start])
        return Vector(terms)

    def _player_number(self, digits: str, tok) -> int:
        player = self._number(digits, tok)
        if not 1 <= player <= self.sig.n:
            raise self._error(f"no player {player} in scope", tok)
        return player

    # -- formulas ----------------------------------------------------------

    def _infix(self, operand, operators: dict, opened: _Group | None = None):
        out: list = []
        pending: list = [] if opened is None else [opened]
        while True:
            item = operand()
            if type(item) is _Group:
                pending.append(item)
                continue
            out.append(item)
            while (op := operators.get(self.tokens[self.pos].kind)) is None:
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
            while pending and type(pending[-1]) is not _Group and (
                pending[-1][0] > op[0] or pending[-1][0] == op[0] and not op[2]
            ):
                right = out.pop()
                out[-1] = pending.pop()[1](out[-1], right)
            pending.append(op)

    def _formula_unary(self):
        prefixes = []
        while (cls := _PREFIXES.get((tok := self.tokens[self.pos]).kind)) is not None:
            self.pos += 1
            if tok.kind == "~":
                prefixes.append((Not, None))
            else:
                prefixes.append((cls, self.program()))
                closing = "]" if tok.kind == "[" else ">"
                self._expect(closing, f"'{closing}'")
        if tok.kind == "(" and self._group_ahead():
            return _Group(partial(_apply_prefixes, prefixes))
        return _apply_prefixes(prefixes, self._atom(_FORMULA_ATOMS))

    # -- atoms, shared by the formula and coalition grammars ---------------

    def _atom(self, atoms: _Atoms):
        tok = self.tokens[self.pos]
        if tok.kind == "NAME":
            if tok.text == "T":
                self.pos += 1
                return atoms.top()
            if tok.text == "win":
                self.pos += 1
                self._expect("(", "'('")
                tok = self.tokens[self.pos]
                text = self._name_or_string("an alternative name")
                if self.sig.alternatives is None:
                    raise self._error("this game has no winner vocabulary", tok)
                if text not in self.sig.alternatives:
                    raise self._error(f"unknown alternative {text!r}", tok)
                self._expect(")", "')'")
                return atoms.wrap(Winner(text))
            if tok.text == "label":
                self.pos += 1
                self._expect("(", "'('")
                text = self._name_or_string("a label")
                self._expect(")", "')'")
                return atoms.wrap(Label(text))
            if not (tok.text[:1] == "u" and tok.text[1:].isdigit() and tok.text[1:].isascii()):
                self._fail(f"unexpected name {tok.text!r} in a {atoms.noun}")
            self.pos += 1
            player = self._player_number(tok.text[1:], tok)
            op = self.tokens[self.pos].kind
            if op == "=":
                self.pos += 1
                return atoms.wrap(UtilEq(player, self._rational()))
            if op in (">=", ">"):
                self.pos += 1
                if self.sig.util_range is None:
                    raise self._error("utility comparisons need a known utility range", tok)
                return atoms.compare(self.sig, player, op, self._rational())
            self._fail("expected '=', '>=' or '>' after a payoff atom")
        if tok.kind == "(" and atoms.vector is not None:
            return atoms.vector(self._vector())
        self._fail(f"expected a {atoms.noun}")

    # -- programs ----------------------------------------------------------

    def program(self):
        return self._infix(self._program_unary, _PROGRAM_OPS)

    def _program_unary(self):
        if self.tokens[self.pos].kind == "(" and self._group_ahead():
            return _Group(self._stars)
        return self._stars(self._program_primary())

    def _stars(self, out):
        while self._accept("*"):
            out = Star(out)
        return out

    def _program_primary(self):
        tok = self.tokens[self.pos]
        if tok.kind == "?":
            self.pos += 1
            body = self._formula_unary()
            if type(body) is _Group:
                body = self._infix(self._formula_unary, _FORMULA_OPS, body)
            return Test(body)
        if tok.kind == "(":
            return Vec(self._vector())
        if tok.kind == "NAME":
            if tok.text[:2] == "ag" and tok.text[2:].isdigit() and tok.text[2:].isascii():
                self.pos += 1
                player = self._player_number(tok.text[2:], tok)
                return AgentConv(player) if self._accept("^") else Agent(player)
            self._fail(f"unexpected name {tok.text!r} in a program")
        self._fail("expected a program")

    # -- coalition logic ---------------------------------------------------

    def _cl_unary(self):
        prefixes = []
        while True:
            if self._accept("~"):
                prefixes.append((CLNot, None))
                continue
            if not self._accept("["):
                break
            name = self._expect("NAME", "'C'")
            if name.text != "C":
                raise self._error("expected 'C' to open a coalition", name)
            self._expect("{", "'{'")
            members: list[int] = []
            if self.tokens[self.pos].kind != "}":
                while True:
                    tok = self._expect("INT", "a player number")
                    player = self._player_number(tok.text, tok)
                    if player in members:
                        raise self._error(f"duplicate coalition member {player}", tok)
                    members.append(player)
                    if not self._accept(","):
                        break
            self._expect("}", "'}'")
            self._expect("]", "']'")
            prefixes.append((CLBox, frozenset(members)))
        if self._accept("("):
            return _Group(partial(_apply_prefixes, prefixes))
        return _apply_prefixes(prefixes, self._atom(_CL_ATOMS))


def parse(text: str, signature, kind: str = "formula"):
    """`text` read from its fine tokens alone, as `stratlogic.parse` must."""
    return Parser(text, signature).run(kind)
