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


_PAYOFF_NAME = re.compile(r"u([0-9]+)\Z")
_AGENT_NAME = re.compile(r"ag([0-9]+)\Z")

# Each match is (leading blanks, token).  In `_FINE`, the fine tokens,
# multi-character operators come before the single characters they start
# with; the last alternatives take a stray character, a lone '"' (an
# unterminated string) and the end of input, so the matches cover the text.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_FINE = rf"""
    "[^"]*"
    |<->|\?\?|!!|->|>=|[()\[\]{{}}<>,;+*?~&|=^/-]
    |{_NAME}
    |[0-9]+
    |.|\Z"""
# `_TOKEN` first tries two whole tokens, spelled without blanks as
# `syntax.render` writes them: a strategy vector of two or more terms, and a
# payoff atom u<i>=<value> that no '/', digit or name character continues.
# Each stands for a run of fine tokens, and the parser maps its text to one
# node (`_Parser._spell`).  `_FINE_TOKEN` reads fine tokens alone.
_TERM = rf"(?:{_NAME}|\?\?|!!)"
_TOKEN = re.compile(
    rf"""([ \t\r\n]*)
    (\({_TERM}(?:,{_TERM})+\)
    |u[0-9]+=-?[0-9]+(?:/[0-9]+)?(?![/0-9A-Za-z_])
    |{_FINE})""",
    re.VERBOSE,
)
_FINE_TOKEN = re.compile(rf"([ \t\r\n]*)({_FINE})", re.VERBOSE)
_OPERATORS = frozenset("<-> ?? !! -> >= ( ) [ ] { } < > , ; + * ? ~ & | = ^ / -".split())
# A token's kind by its first character; a stray character has none.  A lone
# '(' is an operator, so a token that starts with one is a whole vector, and
# a name that holds '=' is a whole payoff atom.
_KIND_BY_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"),
    **dict.fromkeys("0123456789", "INT"),
    '"': "STRING",
    "(": "VECTOR",
    "": "EOF",
}


_Token = tuple[str, str, int]


def _tokenize(
    text: str, lexer: re.Pattern = _TOKEN
) -> tuple[list[_Token], list[tuple[str, str]]]:
    """The (kind, text, index) tokens of `text`, ending with one EOF, and the
    (blanks, token) matches they index, from which `_position` recovers a
    token's line and column."""
    matches = lexer.findall(text)
    tokens = []
    for index, (_, tok) in enumerate(matches):
        if tok in _OPERATORS:
            tokens.append((tok, tok, index))
            continue
        kind = _KIND_BY_FIRST.get(tok[:1])
        if kind == "NAME":
            if "=" in tok:
                kind = "PAYOFF"
        elif kind == "STRING":
            if tok == '"':
                raise ParseError("unterminated string", *_position(matches, index))
            tok = tok[1:-1]
        elif kind is None:
            raise ParseError(f"stray character {tok!r}", *_position(matches, index))
        tokens.append((kind, tok, index))
        if kind == "EOF":
            return tokens, matches


def _position(matches: list[tuple[str, str]], index: int) -> tuple[int, int]:
    """The line and column of the token of match `index`.  A column counts
    from the last newline outside a string literal."""
    line, col = 1, 1
    for blanks, tok in matches[: index + 1]:
        if "\n" in blanks:
            line += blanks.count("\n")
            col = len(blanks) - blanks.rindex("\n")
        else:
            col += len(blanks)
        col += len(tok)
    return line, col - len(matches[index][1])


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
    def __init__(self, text: str, signature: Signature, lexer: re.Pattern = _TOKEN):
        self.tokens, self._matches = _tokenize(text, lexer)
        self.pos = 0
        self.sig = signature
        self.spelled = signature._spelled
        if self.spelled is None:
            self.spelled = {}
            object.__setattr__(signature, "_spelled", self.spelled)

    # -- token plumbing ----------------------------------------------------
    #
    # A token is a (kind, text, index) tuple; `_error` turns its index into
    # a line and column.

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept(self, kind: str) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise self._error(f"expected {what}, found {found!r}", tok)
        self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token) -> ParseError:
        return ParseError(message, *_position(self._matches, tok[2]))

    def _fail(self, message: str):
        raise self._error(message, self._peek())

    def _finish(self, result):
        tok = self._peek()
        if tok[0] != "EOF":
            raise self._error(f"unexpected trailing input {tok[1]!r}", tok)
        return result

    def run(self, kind: str):
        """The whole text as a 'formula', a 'program' or a 'cl' formula."""
        if kind == "formula":
            return self._finish(self.formula())
        if kind == "program":
            return self._finish(self.program())
        if kind == "cl":
            return self._finish(self.cl_formula())
        raise ValueError(f"unknown parse kind {kind!r}")

    # -- shared pieces -----------------------------------------------------

    def _rational(self) -> Fraction:
        negative = self._accept("-") is not None
        num = int(self._expect("INT", "a number")[1])
        den = 1
        if self._accept("/"):
            tok = self._expect("INT", "a denominator")
            den = int(tok[1])
            if den == 0:
                raise self._error("zero denominator", tok)
        value = Fraction(num, den)
        return -value if negative else value

    def _name_or_string(self, what: str) -> str:
        if self._peek()[0] in ("NAME", "STRING"):
            return self._next()[1]
        self._fail(f"expected {what}")

    def _vector_ahead(self) -> bool:
        # A vector is "(" term ("," term)+ ")" with terms that are names,
        # ??, or !!; anything else after "(" is a grouped expression.
        tokens, i = self.tokens, self.pos
        if tokens[i][0] != "(":
            return False
        i += 1
        commas = 0
        while True:
            if tokens[i][0] not in ("NAME", "??", "!!"):
                return False
            i += 1
            if tokens[i][0] == ",":
                commas += 1
                i += 1
                continue
            return tokens[i][0] == ")" and commas >= 1

    def _group_ahead(self) -> bool:
        """Read the '(' of a parenthesized group, if one comes next."""
        if self.tokens[self.pos][0] != "(" or self._vector_ahead():
            return False
        self.pos += 1
        return True

    def _spell(self, text: str):
        """Add a whole vector or payoff token's node to the signature's table
        of spellings.  It is read from the token's fine tokens by `_vector`
        or `_atom`, which check it as they check a spaced spelling.  A failed
        check raises here, and `parse` then reads the text again token by
        token, for the error's message and place."""
        fine = _Parser(text, self.sig, _FINE_TOKEN)
        node = fine._vector() if text[0] == "(" else fine._atom(_FORMULA_ATOMS)
        self.spelled[text] = node
        return node

    def _vector(self) -> Vector:
        # Entered only once `_vector_ahead` has seen "(" term ("," term)+ ")",
        # so every other token is a term and the others are "," up to ")".
        tokens, pos = self.tokens, self.pos
        n, strategy_sets = self.sig.n, self.sig.strategy_sets
        terms = []
        while True:
            pos += 1
            tok = kind, name, _ = tokens[pos]
            if len(terms) == n:
                raise self._error(f"vector has more than {n} positions", tok)
            if kind == "??":
                terms.append(ADV)
            elif kind == "!!":
                terms.append(CUR)
            else:
                if name not in strategy_sets[len(terms)]:
                    raise self._error(
                        f"player {len(terms) + 1} has no strategy named {name!r}", tok
                    )
                terms.append(Concrete(name))
            pos += 1
            if tokens[pos][0] == ")":
                break
        if len(terms) != n:
            raise self._error(
                f"vector has {len(terms)} positions for {n} players", tokens[self.pos]
            )
        self.pos = pos + 1
        return Vector(terms)

    def _player_number(self, digits: str, tok: _Token) -> int:
        player = int(digits)
        if not 1 <= player <= self.sig.n:
            raise self._error(f"no player {player} in scope", tok)
        return player

    def _winner_name(self) -> str:
        self._expect("(", "'('")
        tok = self._peek()
        name = self._name_or_string("an alternative name")
        if self.sig.alternatives is None:
            raise self._error("this game has no winner vocabulary", tok)
        if name not in self.sig.alternatives:
            raise self._error(f"unknown alternative {name!r}", tok)
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
            while (op := operators.get(self.tokens[self.pos][0])) is None:
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
        while (kind := self.tokens[self.pos][0]) in ("~", "[", "<"):
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
        return _apply_prefixes(prefixes, self._atom(_FORMULA_ATOMS))

    # -- atoms, shared by the formula and coalition grammars ---------------

    def _atom(self, atoms: _Atoms):
        tok = kind, text, _ = self._peek()
        if kind == "PAYOFF":
            self.pos += 1
            return atoms.wrap(self.spelled.get(text) or self._spell(text))
        if kind == "VECTOR" and atoms.vector is not None:
            self.pos += 1
            return atoms.vector(self.spelled.get(text) or self._spell(text))
        if kind == "NAME":
            if text == "T":
                self._next()
                return atoms.top()
            if text == "win":
                self._next()
                return atoms.wrap(Winner(self._winner_name()))
            if text == "label":
                self._next()
                self._expect("(", "'('")
                text = self._name_or_string("a label")
                self._expect(")", "')'")
                return atoms.wrap(Label(text))
            m = _PAYOFF_NAME.match(text)
            if m:
                self._next()
                player = self._player_number(m.group(1), tok)
                return self._payoff_tail(atoms, player, tok)
            self._fail(f"unexpected name {text!r} in a {atoms.noun}")
        if kind == "(" and atoms.vector is not None:
            return atoms.vector(self._vector())
        self._fail(f"expected a {atoms.noun}")

    def _payoff_tail(self, atoms: _Atoms, player: int, start: _Token):
        op = self._peek()[0]
        if op == "=":
            self._next()
            return atoms.wrap(UtilEq(player, self._rational()))
        if op in (">=", ">"):
            self._next()
            if self.sig.util_range is None:
                raise self._error("utility comparisons need a known utility range", start)
            return atoms.compare(self.sig, player, op, self._rational())
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
        tok = kind, text, _ = self._peek()
        if kind == "?":
            self._next()
            body = self._formula_unary()
            if type(body) is _Group:
                body = self._infix(self._formula_unary, _FORMULA_OPS, body)
            return Test(body)
        if kind == "VECTOR":
            self.pos += 1
            return Vec(self.spelled.get(text) or self._spell(text))
        if kind == "(":
            return Vec(self._vector())
        if kind == "NAME":
            m = _AGENT_NAME.match(text)
            if m:
                self._next()
                player = self._player_number(m.group(1), tok)
                if self._accept("^"):
                    return AgentConv(player)
                return Agent(player)
            self._fail(f"unexpected name {text!r} in a program")
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
            if name[1] != "C":
                raise self._error("expected 'C' to open a coalition", name)
            self._expect("{", "'{'")
            members: list[int] = []
            if self._peek()[0] != "}":
                while True:
                    tok = self._expect("INT", "a player number")
                    player = self._player_number(tok[1], tok)
                    if player in members:
                        raise self._error(f"duplicate coalition member {player}", tok)
                    members.append(player)
                    if self._accept(","):
                        continue
                    break
            self._expect("}", "'}'")
            self._expect("]", "']'")
            prefixes.append(partial(CLBox, frozenset(members)))
        if self._accept("("):
            return _Group(partial(_apply_prefixes, prefixes))
        return _apply_prefixes(prefixes, self._atom(_CL_ATOMS))


# Binary operators: token -> (binding strength, node, right-associative).
_FORMULA_OPS = {
    "<->": (0, Iff, True),
    "->": (1, Implies, True),
    "|": (2, Or, False),
    "&": (3, And, False),
}
_PROGRAM_OPS = {"+": (0, Choice, False), ";": (1, Seq, False)}
_CL_OPS = {"|": (0, lambda a, b: cl_disj([a, b]), False), "&": (1, CLAnd, False)}


class _Atoms(NamedTuple):
    """How a grammar spells its atoms: the noun its messages use, the node
    for ``T``, the wrapper of a win, label or payoff atom, the node for
    ``u<i> >= v`` or ``u<i> > v`` given (signature, player, operator, value),
    and the node for a vector, or None where ``(`` starts no atom."""

    noun: str
    top: object
    wrap: object
    compare: object
    vector: object


def _payoff_compare(sig: Signature, player: int, op: str, value: Fraction) -> Formula:
    return (payoff_geq if op == ">=" else payoff_gt)(sig, player, value)


def _cl_payoff_compare(sig: Signature, player: int, op: str, value: Fraction) -> CLFormula:
    keep = [w for w in sig.util_range if w > value or op == ">=" and w == value]
    return cl_disj([CLAtom(UtilEq(player, w)) for w in keep])


_FORMULA_ATOMS = _Atoms("formula", Top, lambda atom: atom, _payoff_compare, VectorAtom)
_CL_ATOMS = _Atoms("coalition formula", CLTop, CLAtom, _cl_payoff_compare, None)


def parse(text: str, signature: Signature, kind: str = "formula"):
    """Parse concrete syntax; `kind` is 'formula', 'program', or 'cl'.

    The text is read with whole vector and payoff tokens first.  Where that
    read fails, at a whole token out of place or with a failed check, or at
    any other fault, the text is read again from fine tokens alone, which
    gives the tree or the `ParseError` (message, line, column) it always
    had: up to its first failing token the whole read takes the same steps."""
    try:
        return _Parser(text, signature).run(kind)
    except ParseError:
        return _Parser(text, signature, _FINE_TOKEN).run(kind)

