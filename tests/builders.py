"""Small syntax, signature, profile and game builders, the modality
abbreviations and the by-name table over them, and a node walker, that only
the tests use."""

from __future__ import annotations

from typing import Iterable, Mapping

from stratlogic import (
    ADV,
    CUR,
    Box,
    Choice,
    Concrete,
    Diamond,
    Formula,
    GameError,
    GameForm,
    Implies,
    OutcomeRecord,
    Outcomes,
    Profile,
    Program,
    Seq,
    Signature,
    StrategicGame,
    Vector,
    all_profiles,
)
from stratlogic.properties import (
    _box_each,
    _diamond_some,
    _moves,
    _plurality_vectors,
    _terms,
    _vector,
    diamond_any_state,
    payoff_geq,
    payoff_gt,
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


def from_outcomes(form: GameForm, outcomes: Mapping[Profile, OutcomeRecord]) -> StrategicGame:
    """A game from one record per profile of `form`."""
    states = all_profiles(form)
    missing = [s for s in states if s not in outcomes]
    if missing:
        raise GameError(f"no outcome for profile {form.profile_key(missing[0])!r}")
    if len(outcomes) != len(states):
        raise GameError("outcome table mentions profiles outside the form")
    return StrategicGame(form, Outcomes.from_records([outcomes[s] for s in states], form.n))


# The abbreviations below share nodes the way the property builders do.


def vec_any(sig: Signature, player: int, name: str) -> Vector:
    """The vector fixing `player` to `name` with everyone else unconstrained."""
    if name not in sig.strategies(player):
        raise GameError(f"player {player} has no strategy named {name!r}")
    return _vector(sig, player, Concrete(name), ADV)


def box_switch(sig: Signature, player: int, body: Formula) -> Formula:
    """After any own-strategy switch by `player`, `body` holds."""
    return _box_each(_moves(sig, player, CUR, _terms(sig)), body)


def diamond_switch(sig: Signature, player: int, body: Formula) -> Formula:
    """Some own-strategy switch by `player` reaches `body`."""
    return _diamond_some(_moves(sig, player, CUR, _terms(sig)), body)


def box_any(sig: Signature, player: int, body: Formula) -> Formula:
    """However `player` commits and the others respond, `body` holds."""
    return _box_each(_moves(sig, player, ADV, _terms(sig)), body)


def plurality_winner_vectors(sig: Signature, alternative: str) -> list[Vector]:
    """All-Concrete vectors in which `alternative` gets strictly more votes
    than every other alternative."""
    return _plurality_vectors(sig, alternative, _terms(sig))


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
