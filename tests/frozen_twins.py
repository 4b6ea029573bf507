"""The oracle for `games._frozen`: every record class and every syntax node
class of the package, declared again with ``@dataclass(frozen=True)``.

Each record twin repeats its class's fields and takes the class's own
``__init__``, ``__post_init__``, ``__eq__``, ``__hash__`` and ``__reduce__``
where the class writes one, so that what differs is only what the factory
makes.  Node twins are made per node shape by `node_twin`: a frozen slotted
dataclass over the node class's own field declarations, on a twin `Node`
base with the package's hash, equality and pickling.  Twins carry their
class's name, so that reprs compare as text, and live at this module's top
level, so that they pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from stratlogic import axioms, games, syntax, voting

# --------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class Signature:
    strategy_sets: tuple
    util_range: tuple | None = None
    alternatives: tuple | None = None
    _h: int | None = field(default=None, init=False, repr=False, compare=False)
    _parsed: dict | None = field(default=None, init=False, repr=False, compare=False)
    _nodes: dict | None = field(default=None, init=False, repr=False, compare=False)

    __hash__ = syntax.Signature.__hash__
    __reduce__ = syntax.Signature.__reduce__


@dataclass(frozen=True)
class GameForm:
    strategy_sets: tuple
    _index: tuple = field(init=False, repr=False, compare=False)

    __init__ = games.GameForm.__init__


@dataclass(frozen=True)
class OutcomeRecord:
    label: str
    utils: tuple
    winners: frozenset | None = None

    __post_init__ = games.OutcomeRecord.__post_init__


@dataclass(frozen=True, eq=False)
class Outcomes:
    values: tuple
    codes: np.ndarray
    labels: tuple
    label_codes: np.ndarray
    alternatives: tuple | None = None
    winners: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Outcomes):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True)
class StrategicGame:
    form: games.GameForm
    outcomes: games.Outcomes

    __post_init__ = games.StrategicGame.__post_init__


@dataclass(frozen=True)
class Ballot:
    order: tuple

    __init__ = voting.Ballot.__init__


@dataclass(frozen=True)
class Plurality:
    alternatives: tuple

    __post_init__ = voting.Plurality.__post_init__


@dataclass(frozen=True)
class AbsoluteMajority:
    alternatives: tuple

    __post_init__ = voting.AbsoluteMajority.__post_init__


@dataclass(frozen=True)
class DictatorRule:
    alternatives: tuple
    voter: int

    __post_init__ = voting.DictatorRule.__post_init__


@dataclass(frozen=True)
class ConstantRule:
    alternatives: tuple
    choice: str

    __post_init__ = voting.ConstantRule.__post_init__


@dataclass(frozen=True)
class ResoluteWrap:
    base: voting.VotingRule
    tiebreak: voting.Ballot

    __post_init__ = voting.ResoluteWrap.__post_init__


@dataclass(frozen=True)
class Manipulation:
    profile: tuple
    voter: int
    deviation: voting.Ballot
    before: frozenset
    after: frozenset


@dataclass(frozen=True)
class AuditReport:
    rule: str
    resolute: bool
    strategy_proof: bool
    manipulation: Manipulation | None
    non_imposed: bool
    distinct_winner_sets: int
    dictators: frozenset
    notes: tuple = ()


@dataclass(frozen=True, slots=True)
class AxiomInstance:
    schema: str
    formula: syntax.Formula
    about: str

    __reduce__ = axioms.AxiomInstance.__reduce__


@dataclass(frozen=True, slots=True)
class InstanceResult:
    instance: axioms.AxiomInstance
    valid: bool
    counterexamples: tuple

    __reduce__ = axioms.InstanceResult.__reduce__


RECORD_TWINS = {
    syntax.Signature: Signature,
    games.GameForm: GameForm,
    games.OutcomeRecord: OutcomeRecord,
    games.Outcomes: Outcomes,
    games.StrategicGame: StrategicGame,
    voting.Ballot: Ballot,
    voting.Plurality: Plurality,
    voting.AbsoluteMajority: AbsoluteMajority,
    voting.DictatorRule: DictatorRule,
    voting.ConstantRule: ConstantRule,
    voting.ResoluteWrap: ResoluteWrap,
    voting.Manipulation: Manipulation,
    voting.AuditReport: AuditReport,
    axioms.AxiomInstance: AxiomInstance,
    axioms.InstanceResult: InstanceResult,
}

# --------------------------------------------------------------------------
# nodes


@dataclass(frozen=True, slots=True, eq=False)
class Node:
    _h: int | None = field(default=None, init=False, repr=False)
    _text = None

    __hash__ = syntax.Node.__hash__
    __eq__ = syntax.Node.__eq__
    __reduce__ = syntax.Node.__reduce__


class KeptNode(Node):
    __slots__ = ("_text",)


@dataclass(frozen=True, slots=True, eq=False)
class VectorNode(Node):
    """`Vector`'s shape: a `_text` field of its own."""

    terms: tuple
    _text: str | None = field(default=None, init=False, repr=False)


# Node classes that write their own ``__init__`` or ``__post_init__``.
_OWN = ("__init__", "__post_init__")


def node_twin(cls: type) -> type:
    """The twin of node class `cls`: its own field declarations, on the twin
    base of its shape, made by ``@dataclass(frozen=True, slots=True,
    eq=False)``."""
    if cls is syntax.Vector:
        base, declared = VectorNode, {}
    else:
        base = KeptNode if issubclass(cls, syntax._KeptFormula) else Node
        declared = cls.__dict__.get("__annotations__", {})
    body = {
        "__module__": __name__,
        "__qualname__": cls.__qualname__,
        "__annotations__": dict(declared),
        **{name: cls.__dict__[name] for name in _OWN if _written(cls, name)},
    }
    twin = dataclass(frozen=True, slots=True, eq=False)(type(cls.__name__, (base,), body))
    globals()[cls.__name__] = twin
    return twin


def _written(cls: type, name: str) -> bool:
    """Whether `cls` itself defines `name` in its source, not through the
    factory's compiled code."""
    method = cls.__dict__.get(name)
    return method is not None and method.__code__.co_filename != "<string>"

