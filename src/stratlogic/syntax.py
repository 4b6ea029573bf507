"""Abstract syntax for the strategy logic: terms, vectors, formulas, programs.

Derived connectives (Or, Implies, Iff, Diamond) are real nodes, evaluated by
their defining clauses; they are never rewritten away, so parse/render round
trips preserve structure.
"""
from __future__ import annotations

import re
from dataclasses import field
from fractions import Fraction
from functools import partial
from typing import Iterable, NamedTuple, Union, TYPE_CHECKING

from .games import GameError, _Frozen, _frozen, to_fraction

if TYPE_CHECKING:
    from .games import StrategicGame


# --------------------------------------------------------------------------
# the shared node base


# Nodes are slotted, and their ``__init__`` stores through slot setters.
_node = partial(_frozen, slots=True)


@_node
class Node(_Frozen):
    """Base of every syntax node: structural equality, and a structural hash
    computed on first use and kept in the `_h` slot (None until then), so
    dictionary lookups cost O(1) instead of a walk over the subtree.

    Subclasses are made by `_node`, slotted like this class; their fields,
    in ``__match_args__`` order, are what is hashed and compared.  Both
    walks use an explicit stack, so arbitrarily deep trees never reach the
    interpreter's recursion limit.  Pickles and copies rebuild a node from
    those fields alone, so the hash is recomputed where they are loaded.
    """

    _h: int | None = field(default=None, init=False, repr=False)
    # The spelling `render` keeps on a node: none here, and a slot on the
    # kinds that keep one (`Vector` and `_KeptFormula`).
    _text = None

    def __hash__(self) -> int:
        h = self._h
        if h is not None:
            return h
        # Bottom-up: a node is hashed once its node children are.
        stack = [self]
        while stack:
            node = stack[-1]
            key = [type(node).__name__]
            unhashed = []
            for name in node.__match_args__:
                value = getattr(node, name)
                if isinstance(value, Node):
                    if value._h is None:
                        unhashed.append(value)
                    value = value._h
                key.append(value)
            if unhashed:
                stack.extend(unhashed)
                continue
            stack.pop()
            object.__setattr__(node, "_h", hash(tuple(key)))
        return self._h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        # A hash mismatch rejects a pair at once where both hashes are known;
        # equality itself never computes one.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a._h != b._h and a._h is not None and b._h is not None:
                return False
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Node):
                    if type(x) is not type(y):
                        return False
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# --------------------------------------------------------------------------
# strategy terms and vectors


@_node
class Concrete(Node):
    """A named strategy; denotes {name} where available, else the empty set."""
    name: str


@_node
class Adversary(Node):
    """The wildcard term ``??``: denotes the player's whole strategy set."""


@_node
class Current(Node):
    """The term ``!!``: denotes whatever the player plays at the source state."""


Term = Union[Concrete, Adversary, Current]

ADV = Adversary()
CUR = Current()


@_node
class Vector(Node):
    """One strategy term per player; doubles as an atom and as a program.

    The `_text` slot holds the vector's spelling, made by `render` on first
    use (None until then).  Like the hash, it is no part of the vector's
    value, and pickles and copies do not carry it."""

    terms: tuple[Term, ...]
    _text: str | None = field(default=None, init=False, repr=False)

    def __init__(self, terms: Iterable[Term]):
        terms = tuple(terms)
        if len(terms) < 2:
            raise GameError("a strategy vector needs at least two positions")
        for t in terms:
            if not isinstance(t, (Concrete, Adversary, Current)):
                raise GameError(f"not a strategy term: {t!r}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_h", None)
        object.__setattr__(self, "_text", None)

    @property
    def n(self) -> int:
        return len(self.terms)

    def determined(self) -> bool:
        """True iff no position is the Adversary wildcard."""
        return all(not isinstance(t, Adversary) for t in self.terms)


# --------------------------------------------------------------------------
# formulas


class Formula(Node):
    """Base class; supplies connective sugar for building test formulas.

    The `_plan` slot holds the formula's compiled evaluation plan (see
    `models.extension`).  It is set on first evaluation, never at
    construction, so building a node costs nothing extra.
    """

    __slots__ = ("_plan",)

    def __invert__(self) -> Formula:
        return Not(self)

    def __and__(self, other: Formula) -> Formula:
        return And(self, other)

    def __or__(self, other: Formula) -> Formula:
        return Or(self, other)

    def __rshift__(self, other: Formula) -> Formula:
        return Implies(self, other)


class _KeptFormula(Formula):
    """A formula kind whose spelling needs parentheses in no context and
    costs a walk or a conversion to make, an atom with a name or a value or
    a negation, and that keeps it.  The `_text` slot holds the
    spelling once `render` keeps it, and None until then (see `_kept` and
    `_prefixed`).  Like the hash, it is no part of the node's value, and
    pickles and copies do not carry it."""

    __slots__ = ("_text",)


# A `_KeptFormula` kind's ``__init__`` starts its `_text` slot at None.
_kept_node = partial(_frozen, slots=True, blank=("_text",))


@_node
class Top(Formula):
    """The constant ``T``, true at every state."""


@_node
class VectorAtom(Formula):
    """True at s iff every Concrete position of the vector matches s."""
    vector: Vector


@_kept_node
class Winner(_KeptFormula):
    """``win(name)``: the alternative is among the winners at the state."""
    name: str


@_kept_node
class UtilEq(_KeptFormula):
    """``u<player> = value``; the value, any spelling `to_fraction` takes,
    must be in the game's utility range at evaluation time."""

    player: int
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", to_fraction(self.value))


@_kept_node
class Label(_KeptFormula):
    """``label(text)``: the state's outcome carries this label."""
    text: str


@_kept_node
class Not(_KeptFormula):
    """``~body``: negation."""
    body: Formula


@_node
class And(Formula):
    """``left & right``: conjunction."""
    left: Formula
    right: Formula


@_node
class Or(Formula):
    """``left | right``: disjunction, evaluated by its own clause."""
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    """``left -> right``: implication, right-associative."""
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    """``left <-> right``: equivalence, right-associative."""
    left: Formula
    right: Formula


@_node
class Box(Formula):
    """``[program] body``: `body` holds after every run of the program."""
    program: "Program"
    body: Formula


@_node
class Diamond(Formula):
    """``<program> body``: `body` holds after some run of the program."""
    program: "Program"
    body: Formula


TOP = Top()
BOT = Not(TOP)


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; empty conjunction is T."""
    out: Formula | None = None
    for part in parts:
        out = part if out is None else And(out, part)
    return TOP if out is None else out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-folded disjunction; empty disjunction is ~T."""
    out: Formula | None = None
    for part in parts:
        out = part if out is None else Or(out, part)
    return BOT if out is None else out


# --------------------------------------------------------------------------
# programs


class Program(Node):
    __slots__ = ()

    def __add__(self, other: Program) -> Program:
        return Choice(self, other)


@_node
class Vec(Program):
    """A strategy vector as a program: move to the profiles it allows."""
    vector: Vector


@_node
class Test(Program):
    """``?body``: stay at the state if `body` holds there."""
    body: Formula


@_node
class Seq(Program):
    """``left;right``: run `left`, then `right`."""
    left: Program
    right: Program


@_node
class Choice(Program):
    """``left+right``: run either program."""
    left: Program
    right: Program


@_node
class Star(Program):
    """``body*``: run the program any number of times, zero included."""
    body: Program


@_node
class Agent(Program):
    """Epistemic accessibility for one agent (intensional models only)."""
    player: int


@_node
class AgentConv(Program):
    """The converse of an agent's accessibility relation."""
    player: int


# --------------------------------------------------------------------------
# signatures: what the parser and the property builders need to know


@_frozen
class Signature(_Frozen):
    """Strategy vocabulary plus, when known, the utility range and the
    alternative set used by payoff and winner atoms."""

    strategy_sets: tuple[tuple[str, ...], ...]
    util_range: tuple[Fraction, ...] | None = None
    alternatives: tuple[str, ...] | None = None
    # The hash, computed on first use: hashing the `Fraction`s of the range
    # costs microseconds, and the property memo hashes at every build.
    _h: int | None = field(default=None, init=False, repr=False, compare=False)
    # The parser's table from each whole vector, payoff or modal spelling it
    # read under this signature to its node, made on first use (see `parser`).
    # Like the hash, it is no part of the signature's value.
    _parsed: dict | None = field(default=None, init=False, repr=False, compare=False)
    # The property builders' table of shared nodes, made on first use (see
    # `properties._shared`), and no part of the signature's value either.
    _nodes: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        if self._h is None:
            h = hash((self.strategy_sets, self.util_range, self.alternatives))
            object.__setattr__(self, "_h", h)
        return self._h

    def __reduce__(self):
        return type(self), (self.strategy_sets, self.util_range, self.alternatives)

    @property
    def n(self) -> int:
        return len(self.strategy_sets)

    @property
    def players(self) -> range:
        return range(1, self.n + 1)

    def strategies(self, player: int) -> tuple[str, ...]:
        if not 1 <= player <= self.n:
            raise GameError(f"no player {player} in a {self.n}-player signature")
        return self.strategy_sets[player - 1]

    @classmethod
    def from_game(cls, game: "StrategicGame") -> Signature:
        table = game.outcomes
        return cls(game.form.strategy_sets, table.values, table.alternatives)


# --------------------------------------------------------------------------
# rendering

_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Formula binding strength, loosest first:  <-> , -> , | , & , unary/atomic.
_IFF, _IMPLIES, _OR, _AND, _UNARY = range(5)
# Program binding strength, loosest first:  + , ; , unary/atomic.
_CHOICE, _SEQ, _PUNARY = range(3)


def render(node: Formula | Program | Vector) -> str:
    """Canonical concrete syntax with minimal parentheses."""
    if isinstance(node, Vector):
        return _render_vector(node)
    if isinstance(node, Formula):
        return render_with(_FORMULAS, node, _IFF)
    if isinstance(node, Program):
        return render_with(_PROGRAMS, node, _CHOICE)
    raise TypeError(f"cannot render {node!r}")


class Layout(NamedTuple):
    """How one syntactic category is spelled.  ``rules[type(node)](node,
    context)`` gives the node's text, or a list of strings and
    ``(layout, child, context)`` triples in output order."""

    kind: str
    rules: dict


def render_with(layout: Layout, node, context: int) -> str:
    """Render from an explicit stack, so deep trees and long chains never
    reach the recursion limit."""
    out: list[str] = []
    stack: list = [(layout, node, context)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        layout, node, context = item
        rule = layout.rules.get(type(node))
        if rule is None:
            raise TypeError(f"cannot render {layout.kind} {node!r}")
        parts = node._text or rule(node, context)
        if type(parts) is str:
            out.append(parts)
        else:
            stack.extend(reversed(parts))
    return "".join(out)


def infix(layout: Layout, node, op: str, level: int, context: int, right_assoc=False):
    """A binary node at binding strength `level`: the operand on the side it
    does not associate to needs strictly tighter binding."""
    left, right = (level + 1, level) if right_assoc else (level, level + 1)
    parts = [(layout, node.left, left), op, (layout, node.right, right)]
    return ["(", *parts, ")"] if level < context else parts


def _render_term(t: Term) -> str:
    if isinstance(t, Concrete):
        return t.name
    if isinstance(t, Adversary):
        return "??"
    return "!!"


def _render_vector(v: Vector) -> str:
    text = v._text
    if text is None:
        text = "(" + ",".join(_render_term(t) for t in v.terms) + ")"
        object.__setattr__(v, "_text", text)
    return text


def _render_label_arg(text: str) -> str:
    if _BARE_NAME.match(text):
        return text
    if '"' in text:
        raise GameError(f"label text {text!r} cannot be rendered")
    return f'"{text}"'


# A prefix's spelling longer than this is not kept, so the text kept along
# a run of prefixes grows with the run's length, not with its square.
_KEPT_LIMIT = 64


def _kept(node, spellings: dict) -> str | None:
    """The spelling of `node` if its kind is one of `spellings`' and the
    spelling is kept or made on the spot, else None.  Taking the table of
    one category keeps a node of the other out of a run of prefixes, so an
    ill-typed tree reaches `render_with`'s rule lookup and raises."""
    spell = spellings.get(type(node))
    return None if spell is None else node._text or spell(node)


def _prefixed(f: Not | Box | Diamond, context: int) -> str | list:
    """A ``~``, ``[p]`` or ``<p>`` prefix: its head (``~``, ``[p] ``,
    ``<p> ``), then its body.  The rule walks down the run of such
    prefixes, with programs spelled as one string, to the first node that
    is none or has a kept spelling, so one step spells a whole run, however
    long.  If that node's spelling is kept (an atom's is made on the spot),
    the run's spellings are made from the bottom up, and each negation
    keeps its own while it is at most `_KEPT_LIMIT` long.  Boxes and
    diamonds keep none: most of them stand in one axiom instance only, and
    the slot would make each of them a size class larger."""
    run, heads = [], []
    node = f
    while (text := _kept(node, _FORMULA_SPELLINGS)) is None:
        kind = type(node)
        if kind is Not:
            head = "~"
        elif kind is Box or kind is Diamond:
            program = _kept(node.program, _PROGRAM_SPELLINGS)
            if program is None:
                break
            head = "[" + program + "] " if kind is Box else "<" + program + "> "
        else:
            break
        run.append(node)
        heads.append(head)
        node = node.body
    if text is None:
        if not run:  # `f` is a box or diamond around a composite program
            opening, closing = ("[", "] ") if type(f) is Box else ("<", "> ")
            return [opening, (_PROGRAMS, f.program, _CHOICE), closing, (_FORMULAS, f.body, _UNARY)]
        return ["".join(heads), (_FORMULAS, node, _UNARY)]
    k = len(run)
    while k and len(heads[k - 1]) + len(text) <= _KEPT_LIMIT:
        k -= 1
        text = heads[k] + text
        if heads[k] == "~":
            object.__setattr__(run[k], "_text", text)
    return "".join(heads[:k]) + text if k else text


def _keep(node: _KeptFormula, text: str) -> str:
    object.__setattr__(node, "_text", text)
    return text


# The kinds whose spelling needs parentheses in no context, per category,
# each with the function that makes it.  A vector's spelling is kept on the
# `Vector`, and a negation's only by `_prefixed`.
_FORMULA_SPELLINGS = {
    Top: lambda f: "T",
    VectorAtom: lambda f: _render_vector(f.vector),
    Winner: lambda f: _keep(f, f"win({_render_label_arg(f.name)})"),
    UtilEq: lambda f: _keep(f, f"u{f.player}={f.value}"),
    Label: lambda f: _keep(f, f"label({_render_label_arg(f.text)})"),
    Not: lambda f: None,
}
_PROGRAM_SPELLINGS = {
    Vec: lambda p: _render_vector(p.vector),
    Agent: lambda p: f"ag{p.player}",
    AgentConv: lambda p: f"ag{p.player}^",
}


_FORMULAS = Layout("formula", {
    **dict.fromkeys((Top, VectorAtom, Winner, UtilEq, Label), lambda f, c: _kept(f, _FORMULA_SPELLINGS)),
    **dict.fromkeys((Not, Box, Diamond), _prefixed),
    And: lambda f, c: infix(_FORMULAS, f, " & ", _AND, c),
    Or: lambda f, c: infix(_FORMULAS, f, " | ", _OR, c),
    Implies: lambda f, c: infix(_FORMULAS, f, " -> ", _IMPLIES, c, right_assoc=True),
    Iff: lambda f, c: infix(_FORMULAS, f, " <-> ", _IFF, c, right_assoc=True),
})

_PROGRAMS = Layout("program", {
    **dict.fromkeys((Vec, Agent, AgentConv), lambda p, c: _kept(p, _PROGRAM_SPELLINGS)),
    Test: lambda p, c: ["?", (_FORMULAS, p.body, _UNARY)],
    Star: lambda p, c: [(_PROGRAMS, p.body, _PUNARY), "*"],
    Seq: lambda p, c: infix(_PROGRAMS, p, ";", _SEQ, c),
    Choice: lambda p, c: infix(_PROGRAMS, p, "+", _CHOICE, c),
})
