"""Concrete syntax for the strategy logic.

Formula connectives, loosest first: ``<->`` and ``->`` (both
right-associative), ``|``, ``&``, then unary (``~``, ``[p]``, ``<p>``) and
atoms.  Program operators, loosest first: ``+``, ``;``, then postfix ``*``
and primaries.  Tests and modal operators bind to the following unary
formula.

A parenthesized comma-free expression is a grouped formula/program; with
commas it is a strategy vector such as ``(c,??,!!)``.
"""
from __future__ import annotations

import re
from fractions import Fraction
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
_NUMERAL = re.compile(r"-?[0-9]+")

# Each match is one token, after its leading blanks.  First come three whole
# tokens, spelled as `syntax.render` writes them, each standing for a run of
# fine tokens, its pieces: a modal prefix `[p]` or `<p>` around a vector or
# an agent `ag<i>` with an optional '^' (a '>' that no '=' continues), a
# vector of two or more terms, and a payoff atom u<i>=<value> that no '/',
# digit or name character continues.  Then come the fine tokens, longest
# operators first, and last a stray character, a lone '"' and the end.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM = rf"(?:{_NAME}|\?\?|!!)"
_VECTOR = rf"\({_TERM}(?:,{_TERM})+\)"
_MODAL_PROGRAM = rf"(?:{_VECTOR}|ag[0-9]+\^?)"
_TOKEN = re.compile(
    rf"""[ \t\r\n]*
    (\[{_MODAL_PROGRAM}\]|<{_MODAL_PROGRAM}>(?!=)
    |{_VECTOR}
    |u[0-9]+=-?[0-9]+(?:/[0-9]+)?(?![/0-9A-Za-z_])
    |"[^"]*"
    |<->|\?\?|!!|->|>=|[()\[\]{{}}<>,;+*?~&|=^/-]
    |{_NAME}
    |[0-9]+
    |.|\Z)""",
    re.VERBOSE,
)
# A whole token's pieces, by its first character: a vector's brackets,
# commas and terms; a payoff's name, '=', '-', numerals and '/'; and a
# modal prefix's brackets around a whole vector, or an agent and its '^'.
# Peels are rare, so `re` compiles these on first use.
_PIECES = {
    "(": r"[^(),]+|.",
    "u": r"u?[0-9]+|.",
    **dict.fromkeys("[<", r"\(.*\)|ag[0-9]+|."),
}
_OPERATORS = frozenset("<-> ?? !! -> >= ( ) [ ] { } < > , ; + * ? ~ & | = ^ / -".split())
# A token's kind by its first character; a stray character has none.  A lone
# '(', '[' or '<' is an operator, so a longer token that starts with one is a
# whole vector, box or diamond prefix; a name that holds '=' is a payoff atom.
_KIND_BY_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"),
    **dict.fromkeys("0123456789", "INT"),
    **{'"': "STRING", "(": "VECTOR", "[": "BOX", "<": "DIAMOND", "": "EOF"},
}


def _kind(tok: str) -> str | None:
    """The kind of token `tok`, a spelling `_TOKEN` matched: an operator is
    its own kind; None for a stray character or a lone '"'."""
    if tok in _OPERATORS:
        return tok
    kind = _KIND_BY_FIRST.get(tok[:1])
    if kind == "NAME" and "=" in tok:
        return "PAYOFF"
    return None if tok == '"' else kind


def _shown(tok: str) -> str:
    """Token `tok` as messages quote it: a string literal without quotes."""
    return tok[1:-1] if tok[:1] == '"' else tok


class _Piece(str):
    """A piece of a whole token, read where the grammar takes no whole
    token: its spelling and its offset in that token's spelling.  The
    pieces at offset 0 are the ones that start a token of the text."""

    def __new__(cls, spelling: str, at: int):
        piece = super().__new__(cls, spelling)
        piece.at = at
        return piece


def _position(text: str, index: int) -> tuple[int, int]:
    """The line and column of token `index` of `text`.  A column counts
    from the last newline outside a string literal."""
    line, col = 1, 1
    for _, match in zip(range(index + 1), _TOKEN.finditer(text)):
        blanks, tok = text[match.start() : match.start(1)], match[1]
        line += blanks.count("\n")
        col = len(blanks) - blanks.rindex("\n") if "\n" in blanks else col + len(blanks)
        col += len(tok)
    return line, col - len(tok)


# What an operand reader returns after the '(' of a parenthesized group.
_OPEN = object()


class _Parser:
    """One read of a text: its tokens are the spellings `_TOKEN` finds, and
    a token's kind is worked out only where the grammar asks for it."""

    def __init__(self, text: str, signature: Signature):
        self.toks = _TOKEN.findall(text)
        self.text = text
        self.pos = 0
        self.sig = signature
        if signature._parsed is None:
            object.__setattr__(signature, "_parsed", {})
        self.parsed = signature._parsed

    # -- token plumbing ----------------------------------------------------
    #
    # A whole token met where the grammar takes none is replaced by its
    # pieces (`_peel`), and the parse goes on as a read of fine tokens would.

    def _accept(self, kind: str) -> bool:
        """Read the operator `kind` at `pos`, if it is there."""
        tok = self.toks[self.pos]
        if tok == kind or tok[:1] == kind and self._peel():
            self.pos += 1
            return True
        return False

    def _expect(self, kind: str, what: str) -> str:
        while _kind(tok := self.toks[self.pos]) != kind:
            if not self._peel():
                found = _shown(tok) or "end of input"
                raise self._error(f"expected {what}, found {found!r}")
        self.pos += 1
        return tok

    def _peel(self) -> bool:
        """Replace the token at `pos` by its pieces if it is a whole token."""
        tok = self.toks[self.pos]
        if _kind(tok) not in ("VECTOR", "PAYOFF", "BOX", "DIAMOND"):
            return False
        at = getattr(tok, "at", 0)
        pieces = []
        for spelling in re.findall(_PIECES[tok[0]], tok):
            pieces.append(_Piece(spelling, at))
            at += len(spelling)
        self.toks[self.pos : self.pos + 1] = pieces
        return True

    def _error(self, message: str, at: int | None = None) -> ParseError:
        """An error at token `at` of the list, by default at `pos`."""
        toks = self.toks[: (self.pos if at is None else at) + 1]
        index = sum(getattr(tok, "at", 0) == 0 for tok in toks) - 1
        line, col = _position(self.text, index)
        return ParseError(message, line, col + getattr(toks[-1], "at", 0))

    def run(self, kind: str):
        """The whole text as a 'formula', a 'program' or a 'cl' formula.  A
        stray character or an unterminated string anywhere is the error."""
        try:
            ops = _GRAMMARS.get(kind)
            if ops is None:
                raise ValueError(f"unknown parse kind {kind!r}")
            result = self._expr(ops)
            if self.toks[self.pos]:
                self._peel()
                raise self._error(f"unexpected trailing input {_shown(self.toks[self.pos])!r}")
            return result
        except Exception:  # any failure, a node's own checks too, yields to a bad token
            for index, tok in enumerate(_TOKEN.findall(self.text)):
                if _kind(tok) is None:
                    message = "unterminated string" if tok == '"' else f"stray character {tok!r}"
                    raise ParseError(message, *_position(self.text, index)) from None
            raise

    # -- shared pieces -----------------------------------------------------

    def _rational(self) -> Fraction:
        sign = "-" if self._accept("-") else ""
        at = self.pos
        num = self._number(sign + self._expect("INT", "a number"), at)
        if self._accept("/"):
            at = self.pos
            den = self._number(self._expect("INT", "a denominator"), at)
            if den == 0:
                raise self._error("zero denominator", at)
            return Fraction(num, den)
        return Fraction(num)

    def _number(self, numeral: str, at: int) -> int:
        """A numeral's value, or an error at token `at` if it has more digits
        than `int` converts (4 300 unless the interpreter is told otherwise).
        Leading zeros count: a numeral is refused by its spelling."""
        try:
            return int(numeral)
        except ValueError:
            digits = len(numeral.lstrip("-"))
            raise self._error(f"numeral of {digits} digits is too long", at) from None

    def _name_or_string(self, what: str) -> str:
        while _kind(tok := self.toks[self.pos]) not in ("NAME", "STRING"):
            if not self._peel():
                raise self._error(f"expected {what}")
        self.pos += 1
        return str(_shown(tok))

    def _group_ahead(self) -> bool:
        """Read the '(' at `pos` if it opens a parenthesized group.  A '('
        that starts a vector, "(" term ("," term)+ ")" with terms that are
        names, ?? or !!, opens none."""
        toks, i = self.toks, self.pos
        while _kind(toks[i + 1]) in ("NAME", "??", "!!") and toks[i + 2] == ",":
            i += 2
        if i > self.pos and _kind(toks[i + 1]) in ("NAME", "??", "!!") and toks[i + 2] == ")":
            return False
        self.pos += 1
        return True

    def _missed(self, tok: str):
        """The `Vector`, `UtilEq` or box or diamond program of whole token
        `tok`, just read, that the signature's table lacks; None where a
        check fails or a payoff's value runs on, as in `u1=1 /2`, and the
        pieces are put back at `pos` to be read as a spaced spelling.  Only
        a canonical spelling is kept: a payoff for a value of the range, an
        agent without leading zeros.  So the table holds at most players ×
        |U| payoff and 2 × (vector entries + 2 × players) modal entries, a
        modal entry's vector being one too."""
        # A '/' after the token makes a parse error of all but a payoff.
        node = None if self.toks[self.pos] == "/" else self._whole(tok)
        if node is None:
            self.pos -= 1
            self._peel()
        elif tok[0] == "u":
            if tok == f"u{node.player}={node.value}" and node.value in (self.sig.util_range or ()):
                self.parsed[str(tok)] = node
        elif type(node) not in (Agent, AgentConv) or tok[3] != "0":  # not as in `[ag01]`
            self.parsed[str(tok)] = node
        return node

    def _whole(self, text: str):
        """The node of whole token `text`, whose shape the regex has fixed,
        read with the checks of a read from its pieces; None where one fails."""
        sig = self.sig
        if text[0] == "(":
            terms = self._terms(text[1:-1].split(","))
            return Vector(terms) if text.count(",") + 1 == sig.n and all(terms) else None
        if text[1] == "(":  # a box or diamond around a vector
            program = text[1:-1]
            if vector := self.parsed.get(program) or self._whole(program):
                self.parsed[program] = vector
            return vector and Vec(vector)
        try:  # u<i>=<n>, u<i>=<n>/<d>, or an agent ag<i> with an optional '^'
            player, *value = map(int, _NUMERAL.findall(text))
        except ValueError:  # a numeral longer than `int` converts
            return None
        if not 1 <= player <= sig.n or value[1:] == [0]:
            return None
        if text[0] == "u":
            return UtilEq(player, Fraction(*value))
        return AgentConv(player) if text[-2] == "^" else Agent(player)

    def _vector(self) -> Vector:
        """The vector at `pos`, checked against the signature.  Entered only
        where `_group_ahead` found "(" term ("," term)+ ")", or at a whole
        vector's pieces, so every other token is a term up to the ")"."""
        toks, start = self.toks, self.pos
        end = toks.index(")", start)
        self.pos = end + 1
        n, names = self.sig.n, [*map(str, toks[start + 1 : end : 2])]
        terms = self._terms(names)
        if not all(terms):
            k = terms.index(False)
            message = f"player {k + 1} has no strategy named {names[k]!r}"
            raise self._error(message, start + 1 + 2 * k)
        if len(names) > n:
            raise self._error(f"vector has more than {n} positions", start + 1 + 2 * n)
        if len(names) < n:
            raise self._error(f"vector has {len(names)} positions for {n} players", start)
        return Vector(terms)

    def _terms(self, names: list[str]) -> list:
        """The term that each of the first n `names` spells for its player,
        or False where it names none of that player's strategies."""
        return [
            _WILDCARDS.get(name) or name in strategies and Concrete(name)
            for name, strategies in zip(names, self.sig.strategy_sets)
        ]

    def _player_number(self, digits: str, at: int) -> int:
        player = self._number(digits, at)
        if not 1 <= player <= self.sig.n:
            raise self._error(f"no player {player} in scope", at)
        return player

    # -- the one loop of all three grammars --------------------------------

    def _expr(self, ops: dict, unary: bool = False):
        """Operands joined by the binary operators of `ops`, which names the
        grammar, grouped by precedence and by parentheses from explicit
        stacks, so long chains and deep nesting never recurse.  A formula
        operand that the signature's table holds is read here, without a
        call; any other by the grammar's `_operand`.  With `unary`, the read
        ends after one operand, a parenthesized group read whole."""
        toks = self.toks
        formula, program = ops is _FORMULA_OPS, ops is _PROGRAM_OPS
        parsed = self.parsed if formula else {}
        negation = (Not if formula else CLNot, None)
        # Left operands of pending operators; pending operators, and each
        # open group's prefixes, read before its '('.
        out: list = []
        pending: list = []
        pos = self.pos
        while True:
            prefixes: list = []  # (class, program or coalition or None), outermost first
            while True:
                tok = toks[pos]
                node = parsed.get(tok)
                if node is not None:
                    first = tok[0]
                    if first == "u":
                        if toks[pos + 1] != "/":  # else as in `u1=1 /2`
                            pos += 1
                            break
                    elif first == "(":
                        node = VectorAtom(node)
                        pos += 1
                        break
                    else:
                        prefixes.append((Box if first == "[" else Diamond, node))
                        pos += 1
                        continue
                elif tok == "~" and not program:
                    prefixes.append(negation)
                    pos += 1
                    continue
                self.pos = pos
                node = (self._formula_operand if formula else
                        self._program_operand if program else self._cl_operand)(prefixes)
                pos = self.pos
                if node is _OPEN:
                    pending.append(prefixes)
                    prefixes = []
                elif node is not None:
                    break
            while True:
                if prefixes:
                    for cls, argument in reversed(prefixes):
                        node = cls(node) if argument is None else cls(argument, node)
                if not pending and unary:
                    self.pos = pos
                    return node
                op = ops.get(toks[pos])
                if op is not None:
                    break
                # The chain ends here: it closes the innermost open group,
                # or it is the whole expression.
                while pending and type(pending[-1]) is tuple:
                    node = pending.pop()[1](out.pop(), node)
                if not pending:
                    self.pos = pos
                    return node
                self.pos = pos
                self._expect(")", "')'")
                prefixes = pending.pop()
                if program:
                    node = self._stars(node)
                pos = self.pos
            pos += 1
            # Pending operators that bind tighter, or as tight when `op`
            # associates to the left, take their operands first.
            strength = op[0]
            while pending and type(top := pending[-1]) is tuple and (
                top[0] > strength or top[0] == strength and not op[2]
            ):
                pending.pop()
                node = top[1](out.pop(), node)
            out.append(node)
            pending.append(op)

    # -- formulas ----------------------------------------------------------

    def _formula_operand(self, prefixes: list):
        """Read what stands at `pos` where a formula's operand starts and
        the table holds no whole token for it: a prefix, added to
        `prefixes` (then None), a group's '(' (then `_OPEN`), or an atom.
        None also where a whole token's pieces were put back to be read."""
        tok = self.toks[self.pos]
        kind = _kind(tok)
        if kind in ("[", "<", "BOX", "DIAMOND"):
            self.pos += 1
            if len(kind) == 1:
                program = self._expr(_PROGRAM_OPS)
                self._expect("]" if kind == "[" else ">", "']'" if kind == "[" else "'>'")
            elif (program := self._missed(tok)) is None:  # its pieces are read next
                return None
            prefixes.append((Box if tok[0] == "[" else Diamond, program))
        elif kind == "(" and self._group_ahead():
            return _OPEN
        else:
            return self._atom(_FORMULA_ATOMS)
        return None

    # -- atoms, shared by the formula and coalition grammars ---------------

    def _atom(self, atoms: _Atoms):
        at = self.pos
        tok = self.toks[at]
        kind = _kind(tok)
        if kind == "PAYOFF" or kind == "VECTOR" and atoms.vector is not None:
            self.pos += 1
            node = self.parsed.get(tok)
            if node is None or kind == "PAYOFF" and self.toks[self.pos] == "/":  # as in `u1=1 /2`
                node = self._missed(tok)
            if node is None:
                return self._atom(atoms)
            return atoms.wrap(node) if kind == "PAYOFF" else atoms.vector(node)
        if kind == "NAME":
            if tok == "T":
                self.pos += 1
                return atoms.top()
            if tok == "win" or tok == "label":
                self.pos += 1
                self._expect("(", "'('")
                at = self.pos
                text = self._name_or_string("an alternative name" if tok == "win" else "a label")
                if tok == "win":
                    if self.sig.alternatives is None:
                        raise self._error("this game has no winner vocabulary", at)
                    if text not in self.sig.alternatives:
                        raise self._error(f"unknown alternative {text!r}", at)
                self._expect(")", "')'")
                return atoms.wrap(Winner(text) if tok == "win" else Label(text))
            m = _PAYOFF_NAME.match(tok)
            if not m:
                raise self._error(f"unexpected name {_shown(tok)!r} in a {atoms.noun}")
            self.pos += 1
            player = self._player_number(m.group(1), at)
            op = self.toks[self.pos]
            if op == "=":
                self.pos += 1
                return atoms.wrap(UtilEq(player, self._rational()))
            if op in (">=", ">"):
                self.pos += 1
                if self.sig.util_range is None:
                    raise self._error("utility comparisons need a known utility range", at)
                return atoms.compare(self.sig, player, op, self._rational())
            raise self._error("expected '=', '>=' or '>' after a payoff atom")
        if kind == "(" and atoms.vector is not None:
            return atoms.vector(self._vector())
        raise self._error(f"expected a {atoms.noun}")

    # -- programs ----------------------------------------------------------

    def _program_operand(self, prefixes: list) -> Program:
        if self.toks[self.pos] == "(" and self._group_ahead():
            return _OPEN
        return self._stars(self._program_primary())

    def _stars(self, out: Program) -> Program:
        while self._accept("*"):
            out = Star(out)
        return out

    def _program_primary(self) -> Program:
        at = self.pos
        tok = self.toks[at]
        kind = _kind(tok)
        if kind == "?":
            self.pos += 1
            return Test(self._expr(_FORMULA_OPS, unary=True))
        if kind == "VECTOR":
            self.pos += 1
            node = self.parsed.get(tok) or self._missed(tok)
            return self._program_primary() if node is None else Vec(node)
        if kind == "(":
            return Vec(self._vector())
        if kind == "NAME":
            m = _AGENT_NAME.match(tok)
            if m:
                self.pos += 1
                player = self._player_number(m.group(1), at)
                return AgentConv(player) if self._accept("^") else Agent(player)
            raise self._error(f"unexpected name {_shown(tok)!r} in a program")
        if self._peel():
            return self._program_primary()
        raise self._error("expected a program")

    # -- coalition logic ---------------------------------------------------

    def _cl_operand(self, prefixes: list) -> CLFormula | None:
        if self._accept("["):
            at = self.pos
            if self._expect("NAME", "'C'") != "C":
                raise self._error("expected 'C' to open a coalition", at)
            self._expect("{", "'{'")
            members: list[int] = []
            while self.toks[self.pos] != "}" and (not members or self._accept(",")):
                at = self.pos
                player = self._player_number(self._expect("INT", "a player number"), at)
                if player in members:
                    raise self._error(f"duplicate coalition member {player}", at)
                members.append(player)
            self._expect("}", "'}'")
            self._expect("]", "']'")
            prefixes.append((CLBox, frozenset(members)))
            return None
        if self._accept("("):
            return _OPEN
        return self._atom(_CL_ATOMS)


# The terms of a vector that name no strategy.
_WILDCARDS = {"??": ADV, "!!": CUR}
# Binary operators: token -> (binding strength, node, right-associative).
_FORMULA_OPS = {
    "<->": (0, Iff, True),
    "->": (1, Implies, True),
    "|": (2, Or, False),
    "&": (3, And, False),
}
_PROGRAM_OPS = {"+": (0, Choice, False), ";": (1, Seq, False)}
_CL_OPS = {"|": (0, lambda a, b: cl_disj([a, b]), False), "&": (1, CLAnd, False)}
_GRAMMARS = {"formula": _FORMULA_OPS, "program": _PROGRAM_OPS, "cl": _CL_OPS}


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

    The text is read once, as the spellings of its tokens, with whole modal
    prefix, vector and payoff tokens looked up in the signature's table or
    read straight from their text.  One that fails a check, or stands where
    the grammar takes none, is read from its pieces, so the tree and any
    `ParseError` (message, line, column) are those of a read from fine
    tokens alone."""
    return _Parser(text, signature).run(kind)
