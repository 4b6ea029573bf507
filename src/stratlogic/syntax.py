"""Abstract syntax for the strategy logic: terms, vectors, formulas, programs,
and the coalition formulas written into it.

Derived connectives (Or, Implies, Iff, Diamond) are real nodes, evaluated by
their defining clauses; they are never rewritten away, so parse/render round
trips preserve structure.
"""
from __future__ import annotations

import re
from dataclasses import field
from fractions import Fraction
from functools import partial
from typing import Iterable, Union, TYPE_CHECKING

from .games import Coalition, GameError, _Frozen, _frozen, to_fraction

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
    a negation, and that keeps it.  The `_text` slot holds the spelling
    once `render` keeps it, and None until then (see `_write`).  Like the
    hash, it is no part of the node's value, and pickles and copies do not
    carry it."""

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
# coalition formulas (evaluated and translated in `coalition`)


class CLFormula(Node):
    """Base class for coalition-logic formulas."""

    __slots__ = ()


@_node
class CLTop(CLFormula):
    """The constant ``T`` of coalition logic."""


@_node
class CLAtom(CLFormula):
    """An atomic fact, shared vocabulary with the strategy logic."""
    atom: Formula

    def __post_init__(self) -> None:
        if not isinstance(self.atom, (Winner, UtilEq, Label)):
            raise GameError(f"not an atomic formula: {self.atom!r}")


@_node
class CLNot(CLFormula):
    """``~body``: negation."""
    body: CLFormula


@_node
class CLAnd(CLFormula):
    """``left & right``: conjunction."""
    left: CLFormula
    right: CLFormula


@_node
class CLBox(CLFormula):
    """``[C]body``: coalition C can force `body`."""
    coalition: Coalition
    body: CLFormula

    def __post_init__(self) -> None:
        object.__setattr__(self, "coalition", frozenset(self.coalition))


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

# Binding strengths, loosest first, numbered on through the three syntaxes so
# that a context also names the syntax it takes: formulas ( <-> , -> , | , & ,
# prefixes and atoms), programs ( + , ; , then * and the primaries) and
# coalition formulas ( & , prefixes and atoms).
_IFF, _IMPLIES, _OR, _AND, _UNARY, _CHOICE, _SEQ, _PUNARY, _CL_AND, _CL_UNARY = range(10)

# Each syntax's kinds: a binary kind with its operator, its binding strength
# and the contexts of its left and right operands (the side it does not
# associate to needs strictly tighter binding), and every other kind with 0.
_FORMULA_KINDS = {
    **dict.fromkeys((Not, Box, Diamond, Top, VectorAtom, Winner, UtilEq, Label), 0),
    Iff: (" <-> ", _IFF, _IMPLIES, _IFF),
    Implies: (" -> ", _IMPLIES, _OR, _IMPLIES),
    Or: (" | ", _OR, _OR, _AND),
    And: (" & ", _AND, _AND, _UNARY),
}
_PROGRAM_KINDS = {**dict.fromkeys((Vec, Agent, AgentConv, Test, Star), 0),
                  Choice: ("+", _CHOICE, _CHOICE, _SEQ), Seq: (";", _SEQ, _SEQ, _PUNARY)}
_CL_KINDS = {**dict.fromkeys((CLNot, CLBox, CLAtom, CLTop), 0),
             CLAnd: (" & ", _CL_AND, _CL_AND, _CL_UNARY)}
# Per context, the kinds that may stand in it, and the name of their syntax.
_KINDS = (_FORMULA_KINDS,) * 5 + (_PROGRAM_KINDS,) * 3 + (_CL_KINDS,) * 2
_SYNTAXES = ("formula",) * 5 + ("program",) * 3 + ("coalition formula",) * 2

# A negation's spelling longer than this is not kept, so the text kept
# along a run of prefixes grows with the run's length, not with its square.
_KEPT_LIMIT = 64


def render(node: Formula | Program | Vector) -> str:
    """Canonical concrete syntax with minimal parentheses."""
    if isinstance(node, Vector):
        return _render_vector(node)
    if isinstance(node, Formula):
        return _write(node, _IFF)
    if isinstance(node, Program):
        return _write(node, _CHOICE)
    raise TypeError(f"cannot render {node!r}")


def render_cl(formula: CLFormula) -> str:
    """Canonical concrete syntax of a coalition formula."""
    return _write(formula, _CL_AND)


def _write(node: Node, context: int) -> str:
    """The one loop that writes formulas, programs and coalition formulas.
    Each step writes what it can of a node, told by its kind (one of its
    context's syntax, or `TypeError`), and goes on to its first child; what
    follows waits on an explicit stack, so deep trees never recurse.

    A run of ``~``, ``[p]`` and ``<p>`` prefixes, each program a vector or
    an agent spelled as one string, is walked down in one step to the first
    node that is no such prefix.  If that node's spelling is kept or made on
    the spot (an atom's, or a negation's kept earlier), the run's spellings
    are made from the bottom up, and each negation keeps its own while it
    is at most `_KEPT_LIMIT` long.  Boxes and diamonds keep none: most stand
    in one axiom instance only, and the slot would make each of them a size
    class larger."""
    out: list[str] = []
    write = out.append
    # What follows the node in hand: texts, and nodes each above its context.
    stack: list = []
    pop = stack.pop
    while True:
        kind = type(node)
        rule = _KINDS[context].get(kind)
        if rule is None:
            raise TypeError(f"cannot render {_SYNTAXES[context]} {node!r}")
        if rule:
            op, level, left, right = rule
            if level < context:
                write("(")
                stack += (")", right, node.right, op)
            else:
                stack += (right, node.right, op)
            node, context = node.left, left
            continue
        if kind is Box or kind is Diamond or kind is Not:
            run: list = []
            heads: list[str] = []
            while True:
                if kind is Not:
                    text = node._text
                    if text is not None:
                        break
                    head = "~"
                elif kind is Box or kind is Diamond:
                    program = node.program
                    head = _spelling(program) if type(program) in _PROGRAM_KINDS else None
                    if head is None:  # a composite or ill-typed program
                        text = None
                        break
                    head = "[" + head + "] " if kind is Box else "<" + head + "> "
                else:
                    text = _spelling(node) if kind in _FORMULA_KINDS else None
                    break
                run.append(node)
                heads.append(head)
                node = node.body
                kind = type(node)
            if text is None:
                if kind is Box or kind is Diamond:
                    write("".join(heads) + ("[" if kind is Box else "<"))
                    stack += (_UNARY, node.body, "] " if kind is Box else "> ")
                    node, context = node.program, _CHOICE
                else:
                    write("".join(heads))
                    context = _UNARY
                continue
            k = len(run)
            while k and len(heads[k - 1]) + len(text) <= _KEPT_LIMIT:
                k -= 1
                text = heads[k] + text
                if heads[k] == "~":
                    object.__setattr__(run[k], "_text", text)
            write("".join(heads[:k]) + text if k else text)
        elif kind is Test or kind is CLNot or kind is CLBox:
            write("?" if kind is Test else "~" if kind is CLNot
                  else "[C {" + ",".join(map(str, sorted(node.coalition))) + "}] ")
            node, context = node.body, _UNARY if kind is Test else _CL_UNARY
            continue
        elif kind is Star:
            stack.append("*")
            node, context = node.body, _PUNARY
            continue
        elif kind is CLAtom:
            node, context = node.atom, _IFF
            continue
        else:
            write(_spelling(node))
        # The node is written: on to the next one that waits, writing the
        # texts before it, or, with none left, the end.
        while stack:
            node = pop()
            if type(node) is not str:
                context = pop()
                break
            write(node)
        else:
            return "".join(out)


def _spelling(node: Node) -> str | None:
    """The spelling of a kind that needs parentheses in no context and is
    no prefix: an atom, ``T``, or a vector or agent program; None for any
    other kind.  The atoms with a name or a value keep theirs, made on
    first use, and a `VectorAtom` or `Vec` reads its vector's."""
    kind = type(node)
    if kind is UtilEq or kind is Winner or kind is Label:
        text = node._text
        if text is None:
            text = (f"u{node.player}={node.value}" if kind is UtilEq else
                    f"win({_render_label_arg(node.name)})" if kind is Winner else
                    f"label({_render_label_arg(node.text)})")
            object.__setattr__(node, "_text", text)
        return text
    if kind is VectorAtom or kind is Vec:
        return node.vector._text or _render_vector(node.vector)
    if kind is Agent or kind is AgentConv:
        return f"ag{node.player}" if kind is Agent else f"ag{node.player}^"
    return "T" if kind is Top or kind is CLTop else None


def _render_vector(v: Vector) -> str:
    text = v._text
    if text is None:
        text = "(" + ",".join(t.name if isinstance(t, Concrete) else
                              "??" if isinstance(t, Adversary) else "!!" for t in v.terms) + ")"
        object.__setattr__(v, "_text", text)
    return text


def _render_label_arg(text: str) -> str:
    if _BARE_NAME.match(text):
        return text
    if '"' in text:
        raise GameError(f"label text {text!r} cannot be rendered")
    return f'"{text}"'
