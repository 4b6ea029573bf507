"""Game-theoretic properties as formulas of the strategy logic.

Every builder takes a Signature and enumerates deterministically: utility
values ascending, strategies and alternatives in declared order, players
ascending.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
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
    Or,
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
# A `??` in a vector ranges over the player's whole strategy set, so one
# modality quantifies over every strategy at once: AdversaryPower,
# ``[c[i:=??]]φ ↔ ⋀_a [c[i:=a]]φ`` (and dually ``<c[i:=??]>φ ↔ ⋁_a
# <c[i:=a]>φ``), is valid in every model, restricted forms included, since a
# move never leaves its form and `??` offers exactly the form's strategies.
# So the builders quantify over a player's switches with one deviation
# vector `(…!!, ??, !!…)`, and over whole blocks with the all-`??` vector,
# instead of a conjunction or disjunction of one modality per strategy; the
# plans then grow with players and values, not with strategy counts.
#
# Each property builder makes every subformula that recurs in its tree one
# object.  The strategy terms, the all-`??` program and, per player, the
# switch, commitment and deviation programs and the payoff levels are built
# once per signature, in a table kept on the signature, so every property of
# one vocabulary shares them.  The evaluator's caches then find each repeat
# by identity, not by comparing equal trees node by node.


def _vector(sig: Signature, player: int, term: Term, rest: Term) -> Vector:
    """`player` at `term`, everyone else at `rest`."""
    return Vector(term if p == player else rest for p in sig.players)


def _shared(sig: Signature, key, build):
    """The entry `key` of the signature's node table, built on first use.
    The table lives on the signature, so it goes when the signature does."""
    table = sig._nodes
    if table is None:
        table = {}
        object.__setattr__(sig, "_nodes", table)
    try:
        return table[key]
    except KeyError:
        value = table[key] = build()
        return value


def _terms(sig: Signature) -> dict[str, Concrete]:
    """One `Concrete` term per strategy name, for the signature's vectors to
    share."""
    return _shared(
        sig,
        "terms",
        lambda: {name: Concrete(name) for names in sig.strategy_sets for name in names},
    )


def _moves(sig: Signature, player: int, rest: Term) -> tuple[Vec, ...]:
    """One program per strategy of `player`, in declared order: the vector
    fixing `player` to it with everyone else at `rest` (`CUR` for the
    own-strategy switches, `ADV` for the commitments)."""

    def build() -> tuple[Vec, ...]:
        terms = _terms(sig)
        return tuple(Vec(_vector(sig, player, terms[a], rest)) for a in sig.strategies(player))

    return _shared(sig, (player, rest), build)


def _deviations(sig: Signature, player: int) -> Vec:
    """Every own-strategy switch of `player` as one program: `player` at
    `??`, everyone else staying put."""

    def build() -> Vec:
        sig.strategies(player)  # player range check
        return Vec(_vector(sig, player, ADV, CUR))

    return _shared(sig, (player, "deviations"), build)


def _everyone(sig: Signature) -> Vec:
    """The all-`??` program: every profile of the current form."""
    return _shared(sig, "everyone", lambda: Vec(Vector(ADV for _ in sig.players)))


def diamond_any_state(sig: Signature, body: Formula) -> Formula:
    """`body` holds somewhere in the model (the all-wildcard modality)."""
    return Diamond(_everyone(sig), body)


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


def _levels(sig: Signature, player: int) -> tuple[tuple[Fraction, Formula, Formula], ...]:
    """``(v, payoff_geq(v), payoff_gt(v))`` for each value v of the utility
    range (ascending and distinct, as every game's range is), with the
    disjuncts in descending order: one chain built from the top, in which
    ``payoff_geq(v)`` is ``Or(payoff_gt(v), UtilEq(player, v))`` and
    ``payoff_gt(v)`` the very object that is ``payoff_geq`` of the next
    value (`BOT` at the top one), so a player's levels hold |U| - 1 `Or`s."""

    def build() -> tuple[tuple[Fraction, Formula, Formula], ...]:
        values = _util_range(sig)
        sig.strategies(player)  # player range check
        chain = list(accumulate((UtilEq(player, w) for w in reversed(values)), Or))
        at_least = chain[::-1]
        return tuple(zip(values, at_least, at_least[1:] + [BOT]))

    return _shared(sig, (player, "levels"), build)


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

    def settled(i: int) -> Formula:
        deviate = _deviations(sig, i)
        return disj(And(geq, Box(deviate, _not(gt))) for _, geq, gt in _levels(sig, i))

    return conj(settled(i) for i in sig.players)


def game_is_nash(sig: Signature) -> Formula:
    """Somewhere in the game there is a pure Nash equilibrium."""
    return diamond_any_state(sig, nash_here(sig))


def weak_dominance(sig: Signature, player: int, name: str) -> Formula:
    """`name` weakly dominates for `player`: at every profile, whatever
    level the strategy played reaches, switching to `name` reaches it too.
    (Where `name` is played the switch stays put, so those profiles hold
    trivially.)"""
    names = sig.strategies(player)
    if name not in names:
        raise GameError(f"player {player} has no strategy named {name!r}")
    to_name = _moves(sig, player, CUR)[names.index(name)]
    return Box(
        _everyone(sig),
        conj(Implies(geq, Diamond(to_name, geq)) for _, geq, _ in _levels(sig, player)),
    )


# --------------------------------------------------------------------------
# voting properties


def _plurality_vectors(sig: Signature, alternative: str) -> list[Vector]:
    alts = _alternatives(sig)
    if alternative not in alts:
        raise GameError(f"unknown alternative {alternative!r}")
    terms = _terms(sig)
    out = []
    for names in product(*sig.strategy_sets):
        counts = Counter(names)
        mine = counts[alternative]
        if all(counts[other] < mine for other in alts if other != alternative):
            out.append(Vector(terms[n] for n in names))
    return out


def plurality_rule(sig: Signature) -> Formula:
    """Whenever some alternative has a strict plurality of votes, it wins."""

    def elects(x: str) -> Formula:
        win = Winner(x)
        return conj(Box(Vec(c), win) for c in _plurality_vectors(sig, x))

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
    return Box(_everyone(sig), single)


def strategy_proof_inner(sig: Signature) -> Formula:
    """No player can strictly raise their utility by an own-strategy switch."""

    def truthful(i: int) -> Formula:
        deviate = _deviations(sig, i)
        return disj(And(geq, Not(Diamond(deviate, gt))) for _, geq, gt in _levels(sig, i))

    return conj(truthful(i) for i in sig.players)


def strategy_proof(sig: Signature) -> Formula:
    return Box(_everyone(sig), strategy_proof_inner(sig))


def non_imposed(sig: Signature) -> Formula:
    """At least three different alternatives can each come out as winners."""
    alts = _alternatives(sig)
    everyone = _everyone(sig)
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
    everyone = _everyone(sig)
    deviate = _deviations(sig, player)
    # Per level, each other player's cap (no more than that value).  At the
    # top value every cap is the one Not(BOT), so one Box serves them all.
    capped = zip(*([_not(gt) for _, _, gt in _levels(sig, j)] for j in others))
    disjuncts = []
    for (_, geq, _), caps in zip(levels, capped):
        reach = Diamond(deviate, geq)
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
    mine = sig.strategies(player)  # player range check
    opp = 3 - player
    commitments = _moves(sig, player, ADV)
    branches: list[Program] = []
    for x, guard in zip(sig.strategies(opp), _moves(sig, opp, CUR)):
        if x not in mine:
            raise GameError(
                f"tit-for-tat needs strategy {x!r} to be playable by player {player}"
            )
        play = commitments[mine.index(x)]
        branches.append(Seq(Test(VectorAtom(guard.vector)), play))
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
    """Build a named game property (a Formula, or a Program for titForTat).

    Equal names, signatures and parameters give the same object, so a
    formula checked on many models of one signature (every induced game of
    an election, say) is built, and compiled for evaluation, once.
    """
    if name not in _PROPERTIES:
        raise GameError(f"unknown property {name!r}")
    wanted = _PROPERTIES[name][1]
    if set(params) != set(wanted):
        raise GameError(f"property {name!r} takes parameters {wanted}, got {tuple(params)}")
    return _built(name, sig, *(params[key] for key in wanted))


# The last few properties built, each with its evaluation plan: enough for
# one signature's checks, and little memory when every game has its own.
@lru_cache(maxsize=4, typed=True)
def _built(name: str, sig: Signature, *args):
    return _PROPERTIES[name][0](sig, *args)

