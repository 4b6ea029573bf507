"""Seeded random generators shared by the unit and acceptance suites.

Everything here is deterministic given the caller-supplied ``random.Random``,
so sweep contents are reproducible across runs and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from stratlogic import (
    ADV,
    CUR,
    And,
    Box,
    Concrete,
    Diamond,
    GameForm,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    OutcomeRecord,
    Signature,
    StrategicGame,
    Top,
    UtilEq,
    Vector,
    VectorAtom,
    Winner,
    all_profiles,
)
from stratlogic.coalition import CLAtom, CLAnd, CLBox, CLFormula, CLNot, CLTop
from stratlogic.syntax import (
    Agent,
    AgentConv,
    Choice,
    Formula,
    Program,
    Seq,
    Star,
    Test,
    Vec,
)

from builders import from_outcomes

_NAMES = ("a", "b", "c", "d", "e", "f")


def random_game(
    rng: random.Random,
    *,
    max_players: int = 3,
    size_range: tuple[int, int] = (1, 3),
    util_range: tuple[int, int] = (0, 3),
) -> StrategicGame:
    """A random game with n <= max_players, |S_i| in size_range and integer
    utilities in util_range.  Labels are the profile keys."""
    n = rng.randint(2, max_players)
    sizes = [rng.randint(*size_range) for _ in range(n)]
    form = GameForm(_NAMES[:k] for k in sizes)
    outcomes = {}
    lo, hi = util_range
    for s in all_profiles(form):
        utils = [rng.randint(lo, hi) for _ in range(n)]
        outcomes[s] = OutcomeRecord(form.profile_key(s), utils)
    return from_outcomes(form, outcomes)


def random_lift_game(rng: random.Random) -> StrategicGame:
    """Like :func:`random_game` but every player has at least two strategies,
    the precondition for the epistemic axiom sweep."""
    return random_game(rng, size_range=(2, 3))


# --------------------------------------------------------------------------
# Coalition-logic formulas


def random_cl_formula(
    rng: random.Random, game: StrategicGame, depth: int = 3
) -> CLFormula:
    form = game.form
    values = Signature.from_game(game).util_range

    def atom() -> CLFormula:
        roll = rng.random()
        if roll < 0.15:
            return CLTop()
        if roll < 0.55:
            player = rng.randint(1, form.n)
            value = rng.choice(values)
            return CLAtom(UtilEq(player, value))
        state = rng.choice(all_profiles(form))
        return CLAtom(Label(form.profile_key(state)))

    def build(d: int) -> CLFormula:
        if d <= 0:
            return atom()
        roll = rng.random()
        if roll < 0.35:
            return atom()
        if roll < 0.55:
            return CLNot(build(d - 1))
        if roll < 0.75:
            return CLAnd(build(d - 1), build(d - 1))
        members = [p for p in form.players if rng.random() < 0.5]
        return CLBox(frozenset(members), build(d - 1))

    return build(depth)


# --------------------------------------------------------------------------
# MASL formulas and programs (for parser round-trips)

# Values beyond any util range: the "=" atom parses any rational.
_VALUES = (0, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4), -1)
# Labels that exercise both bare-identifier and quoted rendering.
_LABELS = ("ok", "x_1", "a,b", "two words", "a+b*c")


def eval_safe_pools(game: StrategicGame) -> tuple[tuple, tuple]:
    """Value and label pools guaranteed to evaluate without errors."""
    table = game.outcomes
    labels = tuple(table.labels[code] for code in table.label_codes)
    return Signature.from_game(game).util_range, labels


def random_eval_formula(
    rng: random.Random,
    game: StrategicGame,
    depth: int = 4,
    *,
    agents: bool = False,
):
    """A random formula that evaluates cleanly on models of ``game``."""
    sig = Signature.from_game(game)
    values, labels = eval_safe_pools(game)
    return random_formula(
        rng,
        sig,
        depth,
        values=values,
        labels=labels,
        agents=agents,
    )


def random_eval_program(
    rng: random.Random,
    game: StrategicGame,
    depth: int = 4,
    *,
    agents: bool = False,
):
    sig = Signature.from_game(game)
    values, labels = eval_safe_pools(game)
    return random_program(
        rng,
        sig,
        depth,
        values=values,
        labels=labels,
        agents=agents,
    )


def random_vector(rng: random.Random, sig: Signature) -> Vector:
    terms = []
    for names in sig.strategy_sets:
        roll = rng.random()
        if roll < 0.5:
            terms.append(Concrete(rng.choice(names)))
        elif roll < 0.75:
            terms.append(ADV)
        else:
            terms.append(CUR)
    return Vector(terms)


def random_formula(
    rng: random.Random,
    sig: Signature,
    depth: int = 6,
    *,
    values: tuple = _VALUES,
    labels: tuple = _LABELS,
    agents: bool = True,
) -> Formula:
    def leaf() -> Formula:
        roll = rng.random()
        if roll < 0.1:
            return Top()
        if roll < 0.4:
            return VectorAtom(random_vector(rng, sig))
        if roll < 0.6 and sig.alternatives:
            return Winner(rng.choice(sig.alternatives))
        if roll < 0.85:
            player = rng.randint(1, len(sig.strategy_sets))
            return UtilEq(player, rng.choice(values))
        return Label(rng.choice(labels))

    def build(d: int) -> Formula:
        if d <= 0:
            return leaf()
        roll = rng.random()
        if roll < 0.25:
            return leaf()
        if roll < 0.4:
            return Not(build(d - 1))
        if roll < 0.72:
            kind = rng.choice((And, Or, Implies, Iff))
            return kind(build(d - 1), build(d - 1))
        kind = rng.choice((Box, Diamond))
        program = random_program(
            rng, sig, d - 1, values=values, labels=labels, agents=agents
        )
        return kind(program, build(d - 1))

    return build(depth)


def random_program(
    rng: random.Random,
    sig: Signature,
    depth: int = 6,
    *,
    values: tuple = _VALUES,
    labels: tuple = _LABELS,
    agents: bool = True,
) -> Program:
    n = len(sig.strategy_sets)

    def leaf() -> Program:
        roll = rng.random()
        if roll < 0.5 or not agents:
            return Vec(random_vector(rng, sig))
        if roll < 0.75:
            return Agent(rng.randint(1, n))
        return AgentConv(rng.randint(1, n))

    def build(d: int) -> Program:
        if d <= 0:
            return leaf()
        roll = rng.random()
        if roll < 0.3:
            return leaf()
        if roll < 0.45:
            return Test(
                random_formula(
                    rng, sig, d - 1, values=values, labels=labels, agents=agents
                )
            )
        if roll < 0.65:
            return Seq(build(d - 1), build(d - 1))
        if roll < 0.85:
            return Choice(build(d - 1), build(d - 1))
        return Star(build(d - 1))

    return build(depth)
