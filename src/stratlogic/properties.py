"""Game-theoretic properties as formulas of the strategy logic.

Every builder takes a Signature and enumerates deterministically: utility
values ascending, strategies and alternatives in declared order, players
ascending.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

from .games import GameError, to_fraction
from .syntax import (
    ADV,
    BOT,
    CUR,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Diamond,
    Formula,
    Implies,
    Not,
    Program,
    Seq,
    Signature,
    Star,
    Term,
    Test,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
    conj,
    disj,
)

# --------------------------------------------------------------------------
# vectors and modality abbreviations
#
# Each property builder makes every subformula that recurs in its tree one
# object: the strategy terms, vector programs and payoff levels are built
# once per call.  The trees equal the plain compositions of the abbreviations,
# and the evaluator's caches then find each repeat by identity, not by comparing
# equal trees node by node.


def _vector(sig: Signature, player: int, term: Term, rest: Term) -> Vector:
    """`player` at `term`, everyone else at `rest`."""
    return Vector(term if p == player else rest for p in sig.players)


def vec_switch(sig: Signature, player: int, name: str) -> Vector:
    """The vector fixing `player` to `name` while everyone else stays put."""
    sig.strategies(player)  # player range check
    if name not in sig.strategies(player):
        raise GameError(f"player {player} has no strategy named {name!r}")
    return _vector(sig, player, Concrete(name), CUR)


def all_adversary(sig: Signature) -> Vector:
    return Vector(ADV for _ in sig.players)


def _terms(sig: Signature) -> dict[str, Concrete]:
    """One `Concrete` term per strategy name, for one call's vectors to share."""
    return {name: Concrete(name) for names in sig.strategy_sets for name in names}


def _moves(
    sig: Signature, player: int, rest: Term, terms: dict[str, Concrete]
) -> list[Vec]:
    """One program per strategy of `player`, in declared order: the vector
    fixing `player` to it with everyone else at `rest` (`CUR` for the
    own-strategy switches, `ADV` for the commitments)."""
    return [Vec(_vector(sig, player, terms[a], rest)) for a in sig.strategies(player)]


def _box_each(programs: list[Vec], body: Formula) -> Formula:
    return conj(Box(program, body) for program in programs)


def _diamond_some(programs: list[Vec], body: Formula) -> Formula:
    return disj(Diamond(program, body) for program in programs)


def diamond_any_state(sig: Signature, body: Formula) -> Formula:
    """`body` holds somewhere in the model (the all-wildcard modality)."""
    return Diamond(Vec(all_adversary(sig)), body)


def _util_range(sig: Signature) -> tuple[Fraction, ...]:
    if sig.util_range is None:
        raise GameError("this property needs a signature with a utility range")
    return sig.util_range


def payoff_geq(sig: Signature, player: int, value) -> Formula:
    """Player's utility is at least `value` (a finite disjunction over the
    utility range)."""
    value = to_fraction(value)
    return disj(UtilEq(player, w) for w in _util_range(sig) if w >= value)


def payoff_gt(sig: Signature, player: int, value) -> Formula:
    value = to_fraction(value)
    return disj(UtilEq(player, w) for w in _util_range(sig) if w > value)


def _levels(sig: Signature, player: int) -> list[tuple[Fraction, Formula, Formula]]:
    """``(v, payoff_geq(v), payoff_gt(v))`` for each value v of the utility
    range (ascending and distinct, as every game's range is), built over one
    `UtilEq` atom per value: ``payoff_gt(v)`` is the very object that is
    ``payoff_geq`` of the next value, and `BOT` at the top one."""
    values = _util_range(sig)
    atoms = [UtilEq(player, w) for w in values]
    at_least = [disj(atoms[k:]) for k in range(len(values))]
    return list(zip(values, at_least, at_least[1:] + [BOT]))


_NOT_BOT = Not(BOT)


def _not(f: Formula) -> Formula:
    """``Not(f)``, with one shared ``Not(BOT)`` for the shared `BOT` (the
    top level of every player)."""
    return _NOT_BOT if f is BOT else Not(f)


def _alternatives(sig: Signature) -> tuple[str, ...]:
    if sig.alternatives is None:
        raise GameError("this property needs a signature with alternatives")
    return sig.alternatives


# --------------------------------------------------------------------------
# equilibrium and dominance


def nash_here(sig: Signature) -> Formula:
    """The current profile is a pure Nash equilibrium: every player sits at
    some utility level no own switch strictly exceeds."""
    terms = _terms(sig)

    def settled(i: int) -> Formula:
        switches = _moves(sig, i, CUR, terms)
        return disj(
            And(geq, _box_each(switches, _not(gt))) for _, geq, gt in _levels(sig, i)
        )

    return conj(settled(i) for i in sig.players)


def game_is_nash(sig: Signature) -> Formula:
    """Somewhere in the game there is a pure Nash equilibrium."""
    return diamond_any_state(sig, nash_here(sig))


def weak_dominance(sig: Signature, player: int, name: str) -> Formula:
    """`name` weakly dominates for `player`: whatever level any alternative
    strategy reaches against a block, switching to `name` reaches it too."""
    if name not in sig.strategies(player):
        raise GameError(f"player {player} has no strategy named {name!r}")
    terms = _terms(sig)
    to_name = Vec(_vector(sig, player, terms[name], CUR))
    blocks = [
        Vec(_vector(sig, player, terms[b], ADV))
        for b in sig.strategies(player)
        if b != name
    ]
    return conj(
        _box_each(blocks, Implies(geq, Diamond(to_name, geq)))
        for _, geq, _ in _levels(sig, player)
    )


# --------------------------------------------------------------------------
# voting properties


def _plurality_vectors(
    sig: Signature, alternative: str, terms: dict[str, Concrete]
) -> list[Vector]:
    alts = _alternatives(sig)
    if alternative not in alts:
        raise GameError(f"unknown alternative {alternative!r}")
    out = []
    for names in product(*sig.strategy_sets):
        counts = Counter(names)
        mine = counts[alternative]
        if all(counts[other] < mine for other in alts if other != alternative):
            out.append(Vector(terms[n] for n in names))
    return out


def plurality_rule(sig: Signature) -> Formula:
    """Whenever some alternative has a strict plurality of votes, it wins."""
    terms = _terms(sig)

    def elects(x: str) -> Formula:
        win = Winner(x)
        return conj(Box(Vec(c), win) for c in _plurality_vectors(sig, x, terms))

    return conj(elects(x) for x in _alternatives(sig))


def resolute(sig: Signature) -> Formula:
    """Every reachable profile elects exactly one alternative."""
    wins = [Winner(a) for a in _alternatives(sig)]
    loses = [Not(win) for win in wins]
    # The others' losses, left-folded, start with the fold of the losses
    # before the winner: one shared prefix per position.
    prefixes = list(accumulate(loses, And))
    single = disj(
        And(win, conj(prefixes[k - 1 : k] + loses[k + 1 :]))
        for k, win in enumerate(wins)
    )
    return Box(Vec(all_adversary(sig)), single)


def strategy_proof_inner(sig: Signature) -> Formula:
    """No player can strictly raise their utility by an own-strategy switch."""
    terms = _terms(sig)

    def truthful(i: int) -> Formula:
        switches = _moves(sig, i, CUR, terms)
        return disj(
            And(geq, Not(_diamond_some(switches, gt))) for _, geq, gt in _levels(sig, i)
        )

    return conj(truthful(i) for i in sig.players)


def strategy_proof(sig: Signature) -> Formula:
    return Box(Vec(all_adversary(sig)), strategy_proof_inner(sig))


def non_imposed(sig: Signature) -> Formula:
    """At least three different alternatives can each come out as winners."""
    alts = _alternatives(sig)
    everyone = Vec(all_adversary(sig))
    possible = {x: Diamond(everyone, Winner(x)) for x in alts}

    def with_third(a: str, b: str) -> list[Formula]:
        both = And(possible[a], possible[b])
        return [And(both, possible[c]) for c in alts if c not in (a, b)]

    return disj(
        triple for a in alts for b in alts if b != a for triple in with_third(a, b)
    )


def dictator(sig: Signature, player: int) -> Formula:
    """Some utility level bounds everyone else while `player` can always
    reach it: the mark of a dictator."""
    others = [j for j in sig.players if j != player]
    if not others:
        raise GameError("a dictator needs at least one other player")
    levels = _levels(sig, player)
    everyone = Vec(all_adversary(sig))
    switches = _moves(sig, player, CUR, _terms(sig))
    # Per level, each other player's cap (no more than that value).  At the
    # top value every cap is the one Not(BOT), so one Box serves them all.
    capped = zip(*([_not(gt) for _, _, gt in _levels(sig, j)] for j in others))
    disjuncts = []
    for (_, geq, _), caps in zip(levels, capped):
        reach = _diamond_some(switches, geq)
        bounded = {cap: Box(everyone, And(cap, reach)) for cap in caps}
        disjuncts.append(conj(bounded[cap] for cap in caps))
    return disj(disjuncts)


def knowledge(player: int) -> Program:
    """The knowledge program for one agent: the equivalence closure of their
    accessibility relation."""
    return Star(Choice(Agent(player), AgentConv(player)))


def knowing_dictator(sig: Signature, player: int) -> Formula:
    return Box(knowledge(player), dictator(sig, player))


# --------------------------------------------------------------------------
# repeated-play strategy


def tit_for_tat(sig: Signature, player: int) -> Program:
    """Copy the opponent's previous move, iterated (two players only)."""
    if sig.n != 2:
        raise GameError("tit-for-tat is defined for two-player games")
    sig.strategies(player)  # player range check
    opp = 3 - player
    terms = _terms(sig)
    branches: list[Program] = []
    for x in sig.strategies(opp):
        if x not in sig.strategies(player):
            raise GameError(
                f"tit-for-tat needs strategy {x!r} to be playable by player {player}"
            )
        guard = _vector(sig, opp, terms[x], CUR)
        play = _vector(sig, player, terms[x], ADV)
        branches.append(Seq(Test(VectorAtom(guard)), Vec(play)))
    out: Program = branches[0]
    for branch in branches[1:]:
        out = Choice(out, branch)
    return Star(out)


# --------------------------------------------------------------------------
# name-based dispatch (used by the CLI and the demos)

_PROPERTIES = {
    "nashHere": (nash_here, ()),
    "gameIsNash": (game_is_nash, ()),
    "weakDominance": (weak_dominance, ("player", "strategy")),
    "pluralityRule": (plurality_rule, ()),
    "resolute": (resolute, ()),
    "strategyProof": (strategy_proof, ()),
    "nonImposed": (non_imposed, ()),
    "dictator": (dictator, ("player",)),
    "knowingDictator": (knowing_dictator, ("player",)),
    "titForTat": (tit_for_tat, ("player",)),
}


def build_property(name: str, sig: Signature, **params):
    """Build a named game property (a Formula, or a Program for titForTat)."""
    if name not in _PROPERTIES:
        raise GameError(f"unknown property {name!r}")
    fn, wanted = _PROPERTIES[name]
    if set(params) != set(wanted):
        raise GameError(f"property {name!r} takes parameters {wanted}, got {tuple(params)}")
    return fn(sig, *(params[key] for key in wanted))


PROPERTY_NAMES = tuple(_PROPERTIES)
