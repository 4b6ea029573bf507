"""Small syntax, signature and profile builders, the by-name abbreviation
table, and a node walker, that only the tests use."""

from __future__ import annotations

from typing import Iterable, Mapping

from stratlogic import (
    Box,
    Choice,
    Diamond,
    Formula,
    GameError,
    GameForm,
    Implies,
    Profile,
    Program,
    Seq,
    Signature,
    Vector,
)
from stratlogic.properties import (
    box_any,
    box_switch,
    diamond_any_state,
    diamond_switch,
    payoff_geq,
    payoff_gt,
    vec_any,
    vec_switch,
)
from stratlogic.syntax import Node, Vec


def seq(first: Program, *rest: Program) -> Program:
    """Left-nested sequence: seq(a, b, c) is (a;b);c."""
    out = first
    for p in rest:
        out = Seq(out, p)
    return out


def choice(first: Program, *rest: Program) -> Program:
    """Left-nested choice: choice(a, b, c) is (a+b)+c."""
    out = first
    for p in rest:
        out = Choice(out, p)
    return out


def bare_signature(form: GameForm) -> Signature:
    """A form's strategy vocabulary, without utility range or alternatives."""
    return Signature(form.strategy_sets)


def functionality_shape(vector: Vector, phi: Formula) -> Formula:
    """The Functionality implication for an arbitrary vector, including
    undetermined ones; useful for exhibiting counterexamples."""
    return Implies(Diamond(Vec(vector), phi), Box(Vec(vector), phi))


def node_objects(root: Node) -> list[Node]:
    """Every syntax-node object reachable from `root`, each object once."""
    seen: dict[int, Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for name in node.__match_args__:
            value = getattr(node, name)
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Node):
                    stack.append(child)
    return list(seen.values())


def combine(
    form: GameForm,
    coalition: Iterable[int],
    coalition_part: Mapping[int, str],
    rest_part: Mapping[int, str],
) -> Profile:
    """Assemble a profile from a coalition's choices and the complement's.

    Both parts map player numbers to strategy names; together they must cover
    every player exactly once, with ``coalition_part`` covering ``coalition``.
    """
    members = frozenset(coalition)
    for player in members:
        form._check_player(player)
    if set(coalition_part) != members:
        raise GameError("coalition part does not cover exactly the coalition")
    rest = frozenset(form.players) - members
    if set(rest_part) != rest:
        raise GameError("rest part does not cover exactly the complement")
    names = []
    for player in form.players:
        source = coalition_part if player in members else rest_part
        names.append(source[player])
    return form.profile_from_names(names)


_EXPANSIONS = {
    "boxSwitch": (box_switch, ("player", "body")),
    "boxAny": (box_any, ("player", "body")),
    "diamondSwitch": (diamond_switch, ("player", "body")),
    "diamondAnyState": (diamond_any_state, ("body",)),
    "payoffGeq": (payoff_geq, ("player", "value")),
    "payoffGt": (payoff_gt, ("player", "value")),
    "vecSwitch": (vec_switch, ("player", "strategy")),
    "vecAny": (vec_any, ("player", "strategy")),
}


def expand(name: str, sig: Signature, **params):
    """Build one of the derived modalities/atoms by name."""
    if name not in _EXPANSIONS:
        raise GameError(f"unknown abbreviation {name!r}")
    fn, wanted = _EXPANSIONS[name]
    if set(params) != set(wanted):
        raise GameError(f"abbreviation {name!r} takes parameters {wanted}, got {tuple(params)}")
    return fn(sig, *(params[key] for key in wanted))
