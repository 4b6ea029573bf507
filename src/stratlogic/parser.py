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
# A whole payoff atom's pieces, and their kinds; a piece may be empty.
_PAYOFF_PIECES = re.compile(r"(u[0-9]+)(=)(-?)([0-9]+)(/?)([0-9]*)")
_PAYOFF_KINDS = ("NAME", "=", "-", "INT", "/", "INT")
_OPERATORS = frozenset("<-> ?? !! -> >= ( ) [ ] { } < > , ; + * ? ~ & | = ^ / -".split())
# A token's kind by its first character; a stray character has none.  A lone
# '(', '[' or '<' is an operator, so a longer token that starts with one is a
# whole vector, box or diamond prefix; a name that holds '=' is a payoff atom.
_KIND_BY_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"),
    **dict.fromkeys("0123456789", "INT"),
    **{'"': "STRING", "(": "VECTOR", "[": "BOX", "<": "DIAMOND", "": "EOF"},
}


# (kind, text, token index, offset in the token; non-zero for a piece)
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> tuple[list[_Token], str]:
    """The tokens of `text`, ending with one EOF, and the text, from which
    `_position` recovers a token's line and column."""
    tokens = []
    for index, tok in enumerate(_TOKEN.findall(text)):
        if tok in _OPERATORS:
            tokens.append((tok, tok, index, 0))
            continue
        kind = _KIND_BY_FIRST.get(tok[:1])
        if kind == "NAME" and "=" in tok:
            kind = "PAYOFF"
        elif kind == "STRING":
            if tok == '"':
                raise ParseError("unterminated string", *_position(text, index))
            tok = tok[1:-1]
        elif kind is None:
            raise ParseError(f"stray character {tok!r}", *_position(text, index))
        tokens.append((kind, tok, index, 0))
        if kind == "EOF":
            return tokens, text


def _pieces(tok: _Token) -> list[_Token]:
    """The fine tokens that whole token `tok` spans; a modal prefix's vector
    stays one VECTOR piece, so that it is read through the table too."""
    kind, text, index, at = tok
    if kind == "VECTOR":
        pieces, mark = [], "("
        for name in text[1:-1].split(","):
            term = name if name in _OPERATORS else "NAME"  # '??', '!!' or a name
            pieces += ((mark, mark, index, at), (term, name, index, at + 1))
            at += len(name) + 1
            mark = ","
        pieces.append((")", ")", index, at))
        return pieces
    if kind == "PAYOFF":
        pieces = []
        for kind, piece in zip(_PAYOFF_KINDS, _PAYOFF_PIECES.match(text).groups()):
            if piece:
                pieces.append((kind, piece, index, at))
                at += len(piece)
        return pieces
    # A box or diamond: a whole vector, or an agent's name and its '^', in brackets.
    program, end = text[1:-1], at + len(text) - 1
    inner = [(_KIND_BY_FIRST[program[0]], program.rstrip("^"), index, at + 1)]
    if program[-1] == "^":
        inner.append(("^", "^", index, end - 1))
    return [(text[0], text[0], index, at), *inner, (text[-1], text[-1], index, end)]


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


class _Group(NamedTuple):
    """An open parenthesized group: `finish` turns the group's expression
    into the operand it stands for (applying the prefixes read before the
    '(', or the postfix stars after the ')')."""

    finish: object


def _apply_prefixes(prefixes: list, node):
    """Apply prefixes, read outermost first, innermost first.  Each is a
    (class, argument) pair, the argument a box's program or a coalition;
    a negation has none."""
    for cls, argument in reversed(prefixes):
        node = cls(node) if argument is None else cls(argument, node)
    return node


class _Parser:
    def __init__(self, text: str, signature: Signature):
        self.tokens, self._text = _tokenize(text)
        self.pos = 0
        self.sig = signature
        if signature._parsed is None:
            object.__setattr__(signature, "_parsed", {})
        self.parsed = signature._parsed

    # -- token plumbing ----------------------------------------------------
    #
    # A whole token met where the grammar takes none is replaced by its
    # pieces (`_peel`), and the parse goes on as a read of fine tokens would.

    def _accept(self, kind: str) -> _Token | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        if tok[1][:1] == kind and self._peel():
            return self._accept(kind)
        return None

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            if self._peel():
                return self._expect(kind, what)
            found = tok[1] or "end of input"
            raise self._error(f"expected {what}, found {found!r}", tok)
        self.pos += 1
        return tok

    def _peel(self) -> bool:
        """Replace the token at `pos` by its pieces if it is a whole token."""
        tok = self.tokens[self.pos]
        if tok[0] not in ("VECTOR", "PAYOFF", "BOX", "DIAMOND"):
            return False
        self.tokens[self.pos : self.pos + 1] = _pieces(tok)
        return True

    def _error(self, message: str, tok: _Token) -> ParseError:
        line, col = _position(self._text, tok[2])
        return ParseError(message, line, col + tok[3])

    def _fail(self, message: str):
        raise self._error(message, self.tokens[self.pos])

    def run(self, kind: str):
        """The whole text as a 'formula', a 'program' or a 'cl' formula."""
        if kind == "formula":
            result = self._infix(self._formula_unary, _FORMULA_OPS)
        elif kind == "program":
            result = self.program()
        elif kind == "cl":
            result = self._infix(self._cl_unary, _CL_OPS)
        else:
            raise ValueError(f"unknown parse kind {kind!r}")
        if self.tokens[self.pos][0] != "EOF":
            self._peel()
            tok = self.tokens[self.pos]
            raise self._error(f"unexpected trailing input {tok[1]!r}", tok)
        return result

    # -- shared pieces -----------------------------------------------------

    def _rational(self) -> Fraction:
        sign = "-" if self._accept("-") else ""
        tok = self._expect("INT", "a number")
        num = self._number(sign + tok[1], tok)
        if self._accept("/"):
            tok = self._expect("INT", "a denominator")
            den = self._number(tok[1], tok)
            if den == 0:
                raise self._error("zero denominator", tok)
            return Fraction(num, den)
        return Fraction(num)

    def _number(self, numeral: str, tok: _Token) -> int:
        """A numeral's value, or an error at `tok` if it has more digits than
        `int` converts (4 300 unless the interpreter is told otherwise).
        Leading zeros count: a numeral is refused by its spelling."""
        try:
            return int(numeral)
        except ValueError:
            digits = len(numeral.lstrip("-"))
            raise self._error(f"numeral of {digits} digits is too long", tok) from None

    def _name_or_string(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok[0] in ("NAME", "STRING"):
            self.pos += 1
            return tok[1]
        if self._peel():
            return self._name_or_string(what)
        self._fail(f"expected {what}")

    def _group_ahead(self) -> bool:
        """Read the '(' at `pos` if it opens a parenthesized group.  A '('
        that starts a vector, "(" term ("," term)+ ")" with terms that are
        names, ?? or !!, opens none."""
        tokens, i = self.tokens, self.pos
        while tokens[i + 1][0] in ("NAME", "??", "!!") and tokens[i + 2][0] == ",":
            i += 2
        if i > self.pos and tokens[i + 1][0] in ("NAME", "??", "!!") and tokens[i + 2][0] == ")":
            return False
        self.pos += 1
        return True

    def _missed(self, tok: _Token):
        """The `Vector`, `UtilEq` or box or diamond program of whole token
        `tok`, just read, that the signature's table lacks; None where a
        check fails or a payoff's value runs on, as in `u1=1 /2`, and the
        pieces are put back at `pos` to be read as a spaced spelling.  Only
        a canonical spelling is kept: a payoff for a value of the range, an
        agent without leading zeros.  So the table holds at most players ×
        |U| payoff and 2 × (vector entries + 2 × players) modal entries, a
        modal entry's vector being one too."""
        kind, text = tok[0], tok[1]
        # A '/' after the token makes a parse error of all but a payoff.
        node = None if self.tokens[self.pos][0] == "/" else self._whole(kind, text)
        if node is None:
            self.pos -= 1
            self._peel()
        elif kind == "PAYOFF":
            if text == f"u{node.player}={node.value}" and node.value in (self.sig.util_range or ()):
                self.parsed[text] = node
        elif type(node) not in (Agent, AgentConv) or text[3] != "0":  # not as in `[ag01]`
            self.parsed[text] = node
        return node

    def _whole(self, kind: str, text: str):
        """The node of whole token `text`, whose shape the regex has fixed,
        read with the checks of a read from its pieces; None where one fails."""
        sig = self.sig
        if kind == "VECTOR":
            terms = self._terms(text[1:-1].split(","))
            return Vector(terms) if text.count(",") + 1 == sig.n and all(terms) else None
        if text[1] == "(":  # a box or diamond around a vector
            program = text[1:-1]
            if vector := self.parsed.get(program) or self._whole("VECTOR", program):
                self.parsed[program] = vector
            return vector and Vec(vector)
        try:  # u<i>=<n>, u<i>=<n>/<d>, or an agent ag<i> with an optional '^'
            player, *value = map(int, _NUMERAL.findall(text))
        except ValueError:  # a numeral longer than `int` converts
            return None
        if not 1 <= player <= sig.n or value[1:] == [0]:
            return None
        if kind == "PAYOFF":
            return UtilEq(player, Fraction(*value))
        return AgentConv(player) if text[-2] == "^" else Agent(player)

    def _vector(self) -> Vector:
        """The vector at `pos`, checked against the signature.  Entered only
        where `_group_ahead` found "(" term ("," term)+ ")", or at a whole
        vector's pieces, so every other token is a term up to the ")"."""
        tokens, start = self.tokens, self.pos
        end = start + 2
        while tokens[end][0] != ")":
            end += 2
        self.pos = end + 1
        n, found = self.sig.n, tokens[start + 1 : end : 2]
        terms = self._terms([tok[1] for tok in found])
        if not all(terms):
            k = terms.index(False)
            raise self._error(f"player {k + 1} has no strategy named {found[k][1]!r}", found[k])
        if len(found) > n:
            raise self._error(f"vector has more than {n} positions", found[n])
        if len(found) < n:
            raise self._error(f"vector has {len(found)} positions for {n} players", tokens[start])
        return Vector(terms)

    def _terms(self, names: list[str]) -> list:
        """The term that each of the first n `names` spells for its player,
        or False where it names none of that player's strategies."""
        return [
            _WILDCARDS.get(name) or name in strategies and Concrete(name)
            for name, strategies in zip(names, self.sig.strategy_sets)
        ]

    def _player_number(self, digits: str, tok: _Token) -> int:
        player = self._number(digits, tok)
        if not 1 <= player <= self.sig.n:
            raise self._error(f"no player {player} in scope", tok)
        return player

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

    def _formula_unary(self) -> Formula | _Group:
        # Prefixes are collected in a loop and applied innermost first, so
        # long prefix runs never recurse.
        prefixes = []
        while (cls := _PREFIXES.get((tok := self.tokens[self.pos])[0])) is not None:
            self.pos += 1
            kind = tok[0]
            if kind == "~":
                prefixes.append((Not, None))
            elif len(kind) > 1:  # a whole BOX or DIAMOND prefix
                program = self.parsed.get(tok[1]) or self._missed(tok)
                if program is not None:  # else its pieces are read next
                    prefixes.append((cls, program))
            else:
                prefixes.append((cls, self.program()))
                closing = "]" if kind == "[" else ">"
                self._expect(closing, f"'{closing}'")
        if tok[0] == "(" and self._group_ahead():
            return _Group(partial(_apply_prefixes, prefixes))
        node = self._atom(_FORMULA_ATOMS)
        return _apply_prefixes(prefixes, node) if prefixes else node

    # -- atoms, shared by the formula and coalition grammars ---------------

    def _atom(self, atoms: _Atoms):
        tok = kind, text, _, _ = self.tokens[self.pos]
        if kind == "PAYOFF":
            self.pos += 1
            node = self.parsed.get(text)
            if node is None or self.tokens[self.pos][0] == "/":  # as in `u1=1 /2`
                node = self._missed(tok)
            return self._atom(atoms) if node is None else atoms.wrap(node)
        if kind == "VECTOR" and atoms.vector is not None:
            self.pos += 1
            node = self.parsed.get(text) or self._missed(tok)
            return self._atom(atoms) if node is None else atoms.vector(node)
        if kind == "NAME":
            if text == "T":
                self.pos += 1
                return atoms.top()
            if text == "win":
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
            if text == "label":
                self.pos += 1
                self._expect("(", "'('")
                text = self._name_or_string("a label")
                self._expect(")", "')'")
                return atoms.wrap(Label(text))
            m = _PAYOFF_NAME.match(text)
            if not m:
                self._fail(f"unexpected name {text!r} in a {atoms.noun}")
            self.pos += 1
            player = self._player_number(m.group(1), tok)
            op = self.tokens[self.pos][0]
            if op == "=":
                self.pos += 1
                return atoms.wrap(UtilEq(player, self._rational()))
            if op in (">=", ">"):
                self.pos += 1
                if self.sig.util_range is None:
                    raise self._error("utility comparisons need a known utility range", tok)
                return atoms.compare(self.sig, player, op, self._rational())
            self._fail("expected '=', '>=' or '>' after a payoff atom")
        if kind == "(" and atoms.vector is not None:
            return atoms.vector(self._vector())
        self._fail(f"expected a {atoms.noun}")

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        return self._infix(self._program_unary, _PROGRAM_OPS)

    def _program_unary(self) -> Program | _Group:
        if self.tokens[self.pos][0] == "(" and self._group_ahead():
            return _Group(self._stars)
        return self._stars(self._program_primary())

    def _stars(self, out: Program) -> Program:
        while self._accept("*"):
            out = Star(out)
        return out

    def _program_primary(self) -> Program:
        tok = kind, text, _, _ = self.tokens[self.pos]
        if kind == "?":
            self.pos += 1
            body = self._formula_unary()
            if type(body) is _Group:
                body = self._infix(self._formula_unary, _FORMULA_OPS, body)
            return Test(body)
        if kind == "VECTOR":
            self.pos += 1
            node = self.parsed.get(text) or self._missed(tok)
            return self._program_primary() if node is None else Vec(node)
        if kind == "(":
            return Vec(self._vector())
        if kind == "NAME":
            m = _AGENT_NAME.match(text)
            if m:
                self.pos += 1
                player = self._player_number(m.group(1), tok)
                return AgentConv(player) if self._accept("^") else Agent(player)
            self._fail(f"unexpected name {text!r} in a program")
        if self._peel():
            return self._program_primary()
        self._fail("expected a program")

    # -- coalition logic ---------------------------------------------------

    def _cl_unary(self) -> CLFormula | _Group:
        prefixes = []
        while True:
            if self._accept("~"):
                prefixes.append((CLNot, None))
                continue
            if not self._accept("["):
                break
            name = self._expect("NAME", "'C'")
            if name[1] != "C":
                raise self._error("expected 'C' to open a coalition", name)
            self._expect("{", "'{'")
            members: list[int] = []
            if self.tokens[self.pos][0] != "}":
                while True:
                    tok = self._expect("INT", "a player number")
                    player = self._player_number(tok[1], tok)
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


# The terms of a vector that name no strategy.
_WILDCARDS = {"??": ADV, "!!": CUR}
# The kinds of token that start a prefix of a unary formula, and its class.
_PREFIXES = {"~": Not, "[": Box, "<": Diamond, "BOX": Box, "DIAMOND": Diamond}
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

    The text is read once, with whole modal prefix, vector and payoff
    tokens, looked up in the signature's table or read straight from their
    text.  One that fails a check, or stands where the grammar takes none,
    is read from its pieces, so the tree and any `ParseError` (message,
    line, column) are those of a read from fine tokens alone."""
    return _Parser(text, signature).run(kind)

