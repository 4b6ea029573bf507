"""The compositional property builders, kept as a test oracle.

Each builder composes the modality and payoff helpers, which build fresh
nodes at every use, so these trees repeat equal subformulas as distinct
objects.  `stratlogic.properties` must build trees equal to these, with
each distinct subformula as one object.

The builders that use payoff levels take them as a pair of helpers:
`ASCENDING` (the default, `payoff_geq` and `payoff_gt`) gives the plain
abbreviations, and `DESCENDING` the same disjunctions in descending order of
value, which is how `stratlogic.properties` chains them from the top.  They
also take `quantify`: False (the default) quantifies over a player's
strategies with one modality per strategy, True with one modality over a
`??` vector, as `stratlogic.properties` does.  `PROPERTIES` builds the
first trees, the semantic oracle, and `QUANTIFIED` the second.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
import inspect
from itertools import product

from stratlogic.games import GameError, to_fraction
from stratlogic.syntax import (
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
    Implies,
    Not,
    Program,
    Seq,
    Signature,
    Star,
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


def vec_switch(sig: Signature, player: int, name: str) -> Vector:
    """The vector fixing `player` to `name` while everyone else stays put."""
    sig.strategies(player)  # player range check
    if name not in sig.strategies(player):
        raise GameError(f"player {player} has no strategy named {name!r}")
    return Vector(
        Concrete(name) if p == player else CUR for p in sig.players
    )


def vec_any(sig: Signature, player: int, name: str) -> Vector:
    """The vector fixing `player` to `name` with everyone else unconstrained."""
    if name not in sig.strategies(player):
        raise GameError(f"player {player} has no strategy named {name!r}")
    return Vector(
        Concrete(name) if p == player else ADV for p in sig.players
    )


def all_adversary(sig: Signature) -> Vector:
    return Vector(ADV for _ in sig.players)


def box_switch(sig: Signature, player: int, body: Formula) -> Formula:
    """After any own-strategy switch by `player`, `body` holds."""
    return conj(
        Box(Vec(vec_switch(sig, player, a)), body) for a in sig.strategies(player)
    )


def diamond_switch(sig: Signature, player: int, body: Formula) -> Formula:
    """Some own-strategy switch by `player` reaches `body`."""
    return disj(
        Diamond(Vec(vec_switch(sig, player, a)), body) for a in sig.strategies(player)
    )


def vec_deviate(sig: Signature, player: int) -> Vector:
    """The vector letting `player` take any strategy while everyone else
    stays put."""
    sig.strategies(player)  # player range check
    return Vector(ADV if p == player else CUR for p in sig.players)


def box_deviate(sig: Signature, player: int, body: Formula) -> Formula:
    """`box_switch` as one box: after any own-strategy switch by `player`,
    `body` holds."""
    return Box(Vec(vec_deviate(sig, player)), body)


def diamond_deviate(sig: Signature, player: int, body: Formula) -> Formula:
    """`diamond_switch` as one diamond."""
    return Diamond(Vec(vec_deviate(sig, player)), body)


def box_any(sig: Signature, player: int, body: Formula) -> Formula:
    """However `player` commits and the others respond, `body` holds."""
    return conj(
        Box(Vec(vec_any(sig, player, a)), body) for a in sig.strategies(player)
    )


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


def descending_geq(sig: Signature, player: int, value) -> Formula:
    """`payoff_geq` with its disjuncts from the top value down."""
    value = to_fraction(value)
    return disj(UtilEq(player, w) for w in reversed(_util_range(sig)) if w >= value)


def descending_gt(sig: Signature, player: int, value) -> Formula:
    value = to_fraction(value)
    return disj(UtilEq(player, w) for w in reversed(_util_range(sig)) if w > value)


ASCENDING = (payoff_geq, payoff_gt)
DESCENDING = (descending_geq, descending_gt)


def _alternatives(sig: Signature) -> tuple[str, ...]:
    if sig.alternatives is None:
        raise GameError("this property needs a signature with alternatives")
    return sig.alternatives


# --------------------------------------------------------------------------
# equilibrium and dominance


def nash_here(sig: Signature, levels=ASCENDING, quantify=False) -> Formula:
    """The current profile is a pure Nash equilibrium: every player sits at
    some utility level no own switch strictly exceeds."""
    geq, gt = levels
    box = box_deviate if quantify else box_switch
    return conj(
        disj(
            And(
                geq(sig, i, v),
                box(sig, i, Not(gt(sig, i, v))),
            )
            for v in _util_range(sig)
        )
        for i in sig.players
    )


def game_is_nash(sig: Signature, levels=ASCENDING, quantify=False) -> Formula:
    """Somewhere in the game there is a pure Nash equilibrium."""
    return diamond_any_state(sig, nash_here(sig, levels, quantify))


def weak_dominance(
    sig: Signature, player: int, name: str, levels=ASCENDING, quantify=False
) -> Formula:
    """`name` weakly dominates for `player`: whatever level any alternative
    strategy reaches against a block, switching to `name` reaches it too.
    Quantified, the blocks are every profile, those at `name` included,
    where the switch stays put."""
    if name not in sig.strategies(player):
        raise GameError(f"player {player} has no strategy named {name!r}")
    geq = levels[0]
    if quantify:
        return Box(
            Vec(all_adversary(sig)),
            conj(
                Implies(
                    geq(sig, player, v),
                    Diamond(Vec(vec_switch(sig, player, name)), geq(sig, player, v)),
                )
                for v in _util_range(sig)
            ),
        )
    return conj(
        conj(
            Box(
                Vec(vec_any(sig, player, b)),
                Implies(
                    geq(sig, player, v),
                    Diamond(Vec(vec_switch(sig, player, name)), geq(sig, player, v)),
                ),
            )
            for b in sig.strategies(player)
            if b != name
        )
        for v in _util_range(sig)
    )


# --------------------------------------------------------------------------
# voting properties


def plurality_winner_vectors(sig: Signature, alternative: str) -> list[Vector]:
    """All-Concrete vectors in which `alternative` gets strictly more votes
    than every other alternative."""
    alts = _alternatives(sig)
    if alternative not in alts:
        raise GameError(f"unknown alternative {alternative!r}")
    out = []
    for names in product(*sig.strategy_sets):
        counts = Counter(names)
        mine = counts[alternative]
        if all(counts[other] < mine for other in alts if other != alternative):
            out.append(Vector(Concrete(n) for n in names))
    return out


def plurality_rule(sig: Signature) -> Formula:
    """Whenever some alternative has a strict plurality of votes, it wins."""
    return conj(
        conj(
            Box(Vec(c), Winner(x)) for c in plurality_winner_vectors(sig, x)
        )
        for x in _alternatives(sig)
    )


def resolute(sig: Signature) -> Formula:
    """Every reachable profile elects exactly one alternative."""
    alts = _alternatives(sig)
    single = disj(
        And(Winner(a), conj(Not(Winner(b)) for b in alts if b != a)) for a in alts
    )
    return Box(Vec(all_adversary(sig)), single)


def strategy_proof_inner(sig: Signature, levels=ASCENDING, quantify=False) -> Formula:
    """No player can strictly raise their utility by an own-strategy switch."""
    geq, gt = levels
    diamond = diamond_deviate if quantify else diamond_switch
    return conj(
        disj(
            And(
                geq(sig, i, v),
                Not(diamond(sig, i, gt(sig, i, v))),
            )
            for v in _util_range(sig)
        )
        for i in sig.players
    )


def strategy_proof(sig: Signature, levels=ASCENDING, quantify=False) -> Formula:
    return Box(Vec(all_adversary(sig)), strategy_proof_inner(sig, levels, quantify))


def non_imposed(sig: Signature) -> Formula:
    """At least three different alternatives can each come out as winners."""
    alts = _alternatives(sig)
    return disj(
        conj(diamond_any_state(sig, Winner(x)) for x in (a, b, c))
        for a in alts
        for b in alts
        if b != a
        for c in alts
        if c not in (a, b)
    )


def dictator(sig: Signature, player: int, levels=ASCENDING, quantify=False) -> Formula:
    """Some utility level bounds everyone else while `player` can always
    reach it: the mark of a dictator."""
    others = [j for j in sig.players if j != player]
    if not others:
        raise GameError("a dictator needs at least one other player")
    geq, gt = levels
    diamond = diamond_deviate if quantify else diamond_switch
    return disj(
        conj(
            Box(
                Vec(all_adversary(sig)),
                And(
                    Not(gt(sig, j, v)),
                    diamond(sig, player, geq(sig, player, v)),
                ),
            )
            for j in others
        )
        for v in _util_range(sig)
    )


def knowledge(player: int) -> Program:
    """The knowledge program for one agent: the equivalence closure of their
    accessibility relation."""
    return Star(Choice(Agent(player), AgentConv(player)))


def knowing_dictator(sig: Signature, player: int, levels=ASCENDING, quantify=False) -> Formula:
    return Box(knowledge(player), dictator(sig, player, levels, quantify))


# --------------------------------------------------------------------------
# repeated-play strategy


def tit_for_tat(sig: Signature, player: int) -> Program:
    """Copy the opponent's previous move, iterated (two players only)."""
    if sig.n != 2:
        raise GameError("tit-for-tat is defined for two-player games")
    sig.strategies(player)  # player range check
    opp = 3 - player
    branches: list[Program] = []
    for x in sig.strategies(opp):
        if x not in sig.strategies(player):
            raise GameError(
                f"tit-for-tat needs strategy {x!r} to be playable by player {player}"
            )
        guard = Vector(
            Concrete(x) if p == opp else CUR for p in sig.players
        )
        play = Vector(
            Concrete(x) if p == player else ADV for p in sig.players
        )
        branches.append(Seq(Test(VectorAtom(guard)), Vec(play)))
    out: Program = branches[0]
    for branch in branches[1:]:
        out = Choice(out, branch)
    return Star(out)


# name -> (builder, parameter names), as in `stratlogic.properties`.
PROPERTIES = {
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

# The same builders over the `DESCENDING` levels, quantifying with `??`:
# the trees that `stratlogic.properties` builds.
QUANTIFIED = {
    name: (
        partial(build, levels=DESCENDING, quantify=True)
        if "levels" in inspect.signature(build).parameters
        else build,
        wanted,
    )
    for name, (build, wanted) in PROPERTIES.items()
}
