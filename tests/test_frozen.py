"""The classes made by `games._frozen`: every record and syntax node class
behaves like its ``@dataclass(frozen=True)`` twin in `frozen_twins`, and the
structure that keeps the package's import cheap stays in place."""

from __future__ import annotations

import copy
import inspect
import pickle
from importlib import import_module
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import pytest

import stratlogic
from stratlogic import axioms, games, syntax, voting
from stratlogic.catalog import prisoners_dilemma, vote3_game
from stratlogic.coalition import CLAnd, CLAtom, CLBox, CLNot, CLTop
from stratlogic.syntax import (
    ADV,
    CUR,
    TOP,
    Agent,
    Concrete,
    Label,
    Node,
    UtilEq,
    Vec,
    Vector,
)

from frozen_twins import RECORD_TWINS, node_twin

PD, VOTE3 = prisoners_dilemma(), vote3_game()
C, D = Concrete("c"), Concrete("d")
V, W = Vector((C, ADV)), Vector((CUR, D))
U = UtilEq(1, "1/2")
P, Q = Vec(V), Agent(1)
BALLOT, OTHER_BALLOT = voting.Ballot("abc"), voting.Ballot("cab")
PLURALITY = voting.Plurality(("a", "b", "c"))
INSTANCE = axioms.AxiomInstance("K", TOP, "about T")
MANIPULATION = voting.Manipulation((BALLOT, BALLOT), 1, OTHER_BALLOT, frozenset("a"), frozenset("c"))


def _outcomes(game):
    return tuple(getattr(game.outcomes, f.name) for f in fields(games.Outcomes))


# Per class: the arguments of one instance, and of an unequal one (None for
# a node kind with no fields).
RECORD_ARGS = {
    syntax.Signature: (
        (PD.form.strategy_sets, PD.outcomes.values, None),
        (VOTE3.form.strategy_sets, VOTE3.outcomes.values, VOTE3.outcomes.alternatives),
    ),
    games.GameForm: (((("c", "d"), ("c", "d")),), ((("a",), ("b", "c")),)),
    games.OutcomeRecord: (("x", (1, "1/2")), ("x", (1, "1/2"), {"a"})),
    games.Outcomes: (_outcomes(PD), _outcomes(VOTE3)),
    games.StrategicGame: ((PD.form, PD.outcomes), (VOTE3.form, VOTE3.outcomes)),
    voting.Ballot: (("abc",), ("cab",)),
    voting.Plurality: ((("a", "b"),), (("a", "b", "c"),)),
    voting.AbsoluteMajority: ((("a", "b"),), (("b", "a"),)),
    voting.DictatorRule: ((("a", "b"), 1), (("a", "b"), 2)),
    voting.ConstantRule: ((("a", "b"), "a"), (("a", "b"), "b")),
    voting.ResoluteWrap: ((PLURALITY, BALLOT), (PLURALITY, OTHER_BALLOT)),
    voting.Manipulation: (
        ((BALLOT, BALLOT), 1, OTHER_BALLOT, frozenset("a"), frozenset("c")),
        ((BALLOT, BALLOT), 2, OTHER_BALLOT, frozenset("a"), frozenset("c")),
    ),
    voting.AuditReport: (
        ("plurality", False, False, MANIPULATION, True, 4, frozenset()),
        ("dictator:1", True, True, None, True, 3, frozenset({1}), ("a note",)),
    ),
    axioms.AxiomInstance: (("K", TOP, "about T"), ("K", U, "about u1=1/2")),
    axioms.InstanceResult: ((INSTANCE, True, ()), (INSTANCE, False, (("m", "c,d"),))),
}

NODE_ARGS = {
    syntax.Concrete: (("c",), ("d",)),
    syntax.Adversary: ((), None),
    syntax.Current: ((), None),
    syntax.Vector: (((C, ADV),), ((CUR, D),)),
    syntax.Top: ((), None),
    syntax.VectorAtom: ((V,), (W,)),
    syntax.Winner: (("a",), ("b",)),
    syntax.UtilEq: ((1, "1/2"), (2, Fraction(1, 2))),
    syntax.Label: (("x",), ("y x",)),
    syntax.Not: ((TOP,), (U,)),
    syntax.And: ((TOP, U), (U, TOP)),
    syntax.Or: ((TOP, U), (TOP, TOP)),
    syntax.Implies: ((TOP, U), (U, U)),
    syntax.Iff: ((U, TOP), (TOP, TOP)),
    syntax.Box: ((P, U), (Q, U)),
    syntax.Diamond: ((P, U), (P, TOP)),
    syntax.Vec: ((V,), (W,)),
    syntax.Test: ((U,), (TOP,)),
    syntax.Seq: ((P, Q), (Q, P)),
    syntax.Choice: ((P, Q), (P, P)),
    syntax.Star: ((P,), (Q,)),
    syntax.Agent: ((1,), (2,)),
    syntax.AgentConv: ((1,), (2,)),
    CLTop: ((), None),
    CLAtom: ((U,), (Label("x"),)),
    CLNot: ((CLTop(),), (CLNot(CLTop()),)),
    CLAnd: ((CLTop(), CLNot(CLTop())), (CLTop(), CLTop())),
    CLBox: (({1}, CLTop()), ([1, 2], CLTop())),
}


def _node_classes() -> list[type]:
    """Every node kind of the package: the subclasses of `Node` that make
    instances (those with fields of their own declared, or none at all), as
    their modules name them."""
    return [
        cls
        for cls in _package_classes()
        if issubclass(cls, Node) and cls is not Node and "__match_args__" in cls.__dict__
    ]


def _package_classes() -> list[type]:
    """Every class defined at the top level of a module of the package."""
    package = Path(stratlogic.__file__).parent
    modules = [import_module(f"stratlogic.{path.stem}") for path in package.glob("*.py")]
    return [
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    ]


def _outcome(action):
    """What `action()` gives: its value, or the type of what it raised."""
    try:
        return action()
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return type(exc)


def _observed(cls: type, args: tuple, other: tuple | None) -> dict:
    """Everything compared between a class and its twin, for one instance
    built twice and, where given, an unequal one."""
    a, b = cls(*args), cls(*args)
    seen = {
        "repr": repr(a),
        "equal": (a == b, a != b),
        "hash": (_outcome(lambda: hash(a)), _outcome(lambda: hash(a) == hash(b))),
        "fields": [(f.name, f.init, f.repr, f.compare, f.default) for f in fields(a)],
        "match_args": cls.__match_args__,
        "dict": hasattr(a, "__dict__"),
        "parameters": [
            (p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()
        ],
    }
    for f in fields(a):
        for action in (lambda: setattr(a, f.name, 1), lambda: delattr(a, f.name)):
            with pytest.raises(FrozenInstanceError) as raised:
                action()
            seen.setdefault("frozen", []).append(str(raised.value))
    if other is not None:
        c = cls(*other)
        seen["unequal"] = (a == c, a != c, repr(c), _outcome(lambda: hash(c)))
        changes = {f.name: getattr(c, f.name) for f in fields(c) if f.init}
        seen["replace"] = repr(_outcome(lambda: replace(a, **changes)))
    for name, copied in (
        ("pickle", pickle.loads(pickle.dumps(a))),
        ("copy", copy.copy(a)),
        ("deepcopy", copy.deepcopy(a)),
    ):
        seen[name] = (repr(copied), type(copied).__name__, copied == a, copied is a)
    return seen


@pytest.mark.parametrize("cls", list(RECORD_ARGS), ids=lambda cls: cls.__name__)
def test_every_record_behaves_like_its_frozen_dataclass_twin(cls):
    twin = RECORD_TWINS[cls]
    args, other = RECORD_ARGS[cls]
    assert _observed(cls, args, other) == _observed(twin, args, other)


def test_every_node_kind_behaves_like_its_frozen_dataclass_twin():
    assert set(_node_classes()) == set(NODE_ARGS)
    for cls, (args, other) in NODE_ARGS.items():
        assert _observed(cls, args, other) == _observed(node_twin(cls), args, other), cls


def test_equality_across_classes_matches_the_twins():
    """Instances of two different classes are unequal and compare through
    NotImplemented, as twins do, for every pair of classes."""
    table = [(cls, RECORD_TWINS[cls], args) for cls, (args, _) in RECORD_ARGS.items()]
    table += [(cls, node_twin(cls), args) for cls, (args, _) in NODE_ARGS.items()]
    real = [cls(*args) for cls, _, args in table]
    twins = [twin(*args) for _, twin, args in table]
    for i, (x, tx) in enumerate(zip(real, twins)):
        for y, ty in zip(real[i + 1 :], twins[i + 1 :]):
            assert (x == y, x != y, x.__eq__(y)) == (tx == ty, tx != ty, tx.__eq__(ty))


def test_every_immutable_class_is_made_by_the_factory_without_generated_guards():
    """Every node kind stays a dataclass, for `dataclasses.fields` and the
    benchmark's node counter, and has a docstring of its own, so `dataclass`
    never makes one from the signature.  No class of the package carries a
    ``__repr__``, ``__setattr__`` or ``__delattr__`` of its own that a
    dataclass generated: those come from one base."""
    nodes = _node_classes()
    assert all(is_dataclass(cls) for cls in nodes)
    made = [cls for cls in _package_classes() if "__dataclass_fields__" in cls.__dict__]
    assert set(nodes) | set(RECORD_ARGS) <= set(made) | {Node}
    for cls in made:
        # Without one, `dataclass` writes "Name(field, ...)" from the signature.
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls
        assert issubclass(cls, games._Frozen), cls
        assert not {"__repr__", "__setattr__", "__delattr__"} & set(cls.__dict__), cls
