"""Metamorphic gates on games of 10^4 to 10^5 profiles, beyond the reach of
the dense oracle: a change to the input with a known effect on every
extension.

- Reordering the strategies within each player leaves every extension
  unchanged, read by state key.
- A game on a `restrict`ed form of a larger grid (a model whose slots have
  gaps) gives, key by key, the extensions of the same game on its own grid.
- ``[p]phi`` equals ``~<p>~phi`` on lifts, for every kind of program.
- Renumbering the players, together with the positions of every vector and
  the player of every payoff atom, moves every extension with the states.
- A positive affine map of one player's utilities leaves `nashHere` and
  every `weakDominance` unchanged.

Axes have up to 13 strategies, and each test runs few examples."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import (
    ADV,
    UtilEq,
    Box,
    Concrete,
    Diamond,
    GameForm,
    IntensionalModel,
    MaslModel,
    Not,
    Or,
    Outcomes,
    Signature,
    StrategicGame,
    Vector,
    VectorAtom,
    epistemic_lift,
    extension,
    restrict,
)
from stratlogic.properties import build_property
from stratlogic.syntax import Agent, AgentConv, Choice, Node, Seq, Star, Test as ProgTest, Vec

from gens import random_eval_formula, random_program, random_vector

# Grids of 10^4 to 10^5 profiles, each with an axis of 13 strategies.
SHAPES = ((13, 12, 11, 7), (13, 5, 13, 3, 4), (6, 13, 2, 9, 10), (13, 13, 13, 13))
# Grids that keep more than 10^4 profiles with one strategy of each axis left out.
EMBED_SHAPES = ((13, 12, 12, 9), (13, 7, 13, 4, 5), (13, 13, 13, 13))
VALUES = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2))
LABELS = ("x", "y", "z")


def _names(size: int) -> tuple[str, ...]:
    return tuple(f"s{k}" for k in range(size))


def _game(form: GameForm, rng: np.random.Generator) -> StrategicGame:
    """A game on `form` with utilities drawn from VALUES and labels from
    LABELS, built as columns rather than one record per profile."""
    rows = form.profile_count()
    codes = rng.integers(0, len(VALUES), size=(rows, form.n), dtype=np.uint8)
    return StrategicGame(form, Outcomes(VALUES, codes, LABELS, rng.integers(0, 3, rows, dtype=np.uint8)))


def _formulas(rng: random.Random, game: StrategicGame, count: int) -> list:
    """`count` random formulas over the game's vocabulary, and `nashHere`."""
    sig = Signature.from_game(game)
    out = [random_eval_formula(rng, game, depth=3) for _ in range(count)]
    return out + [build_property("nashHere", sig)]


@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_reordering_strategies_leaves_every_extension_unchanged(shape, seed):
    rng, pick = np.random.default_rng(seed), random.Random(seed)
    game = _game(GameForm(_names(size) for size in shape), rng)
    # Axis p of the reordered form lists the original strategies perms[p].
    perms = [rng.permutation(size) for size in shape]
    form = GameForm([tuple(game.form.strategy_sets[p][k] for k in perm) for p, perm in enumerate(perms)])
    grid = game.outcomes.codes.reshape(*shape, len(shape))[np.ix_(*perms)]
    labels = game.outcomes.label_codes.reshape(shape)[np.ix_(*perms)]
    outcomes = Outcomes(VALUES, grid.reshape(-1, len(shape)), LABELS, labels.reshape(-1))
    original, reordered = MaslModel(game), MaslModel(StrategicGame(form, outcomes))
    # State i of the original model is state moved[i] of the reordered one.
    where = [np.argsort(perm) for perm in perms]
    cells = np.unravel_index(np.arange(original.size), shape)
    moved = np.ravel_multi_index([w[c] for w, c in zip(where, cells)], shape)
    for i in pick.sample(range(original.size), 20):
        assert reordered.state_key(int(moved[i])) == original.state_key(i)
    for formula in _formulas(pick, game, 6):
        assert np.array_equal(extension(reordered, formula)[moved], extension(original, formula))


@given(st.sampled_from(EMBED_SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_a_game_on_a_restricted_form_matches_it_on_its_own_grid(shape, seed):
    rng, pick = np.random.default_rng(seed), random.Random(seed)
    ambient = GameForm(_names(size) for size in shape)
    # One strategy of each axis, anywhere in it, is a gap in the ambient grid.
    kept = {p: np.delete(names, rng.integers(len(names))) for p, names in enumerate(ambient.strategy_sets, 1)}
    small = restrict(ambient, kept)
    game = _game(small, rng)
    # The worlds are the small form's profiles, in its order, at their
    # ambient strategy indices.
    lookup = [np.array([ambient.strategy_index(p, name) for name in names])
              for p, names in enumerate(small.strategy_sets, 1)]
    cells = np.unravel_index(np.arange(small.profile_count()), [len(names) for names in small.strategy_sets])
    worlds = np.column_stack([np.zeros_like(cells[0]), *(w[c] for w, c in zip(lookup, cells))])
    embedded = IntensionalModel(ambient, [(None, small)], worlds, game.outcomes)
    alone = MaslModel(game)
    assert embedded._slots is not None and embedded.size == alone.size < math.prod(shape)
    for i in pick.sample(range(alone.size), 20):
        assert embedded.state_key(i) == alone.state_key(i)
    for formula in _formulas(pick, game, 6):
        assert np.array_equal(extension(embedded, formula), extension(alone, formula))


@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=2, deadline=None)
def test_box_is_the_dual_of_diamond_for_every_program_kind_on_lifts(shape, seed):
    rng, pick = np.random.default_rng(seed), random.Random(seed)
    game = _game(GameForm(_names(size) for size in shape), rng)
    lift, sig = epistemic_lift(game), Signature.from_game(game)
    players = range(1, len(shape) + 1)
    # Player i's own choice decides part of phi, so [ag i]phi is neither
    # empty nor everything.
    i = pick.choice(players)
    own = Vector(Concrete(pick.choice(names)) if p == i else ADV for p, names in enumerate(sig.strategy_sets, 1))
    phi = Or(VectorAtom(own), random_eval_formula(pick, game, depth=2))
    vec = Vec(random_vector(pick, sig))
    agent, converse = Agent(i), AgentConv(pick.choice(players))
    programs = [
        vec,
        agent,
        converse,
        ProgTest(random_eval_formula(pick, game, depth=1)),
        Seq(vec, agent),
        Choice(agent, converse),
        Star(Choice(agent, AgentConv(pick.choice(players)))),
        random_program(pick, sig, 3, values=VALUES, labels=LABELS),
    ]
    for program in programs:
        assert np.array_equal(
            extension(lift, Box(program, phi)), extension(lift, Not(Diamond(program, Not(phi))))
        )


def _renumbered(node, new_of: dict[int, int]):
    """`node` with player p renamed `new_of[p]`: in every vector's
    positions and every payoff atom (formulas of modest depth only)."""
    if isinstance(node, Vector):
        terms = [None] * node.n
        for p, term in enumerate(node.terms, 1):
            terms[new_of[p] - 1] = term
        return Vector(terms)
    if isinstance(node, UtilEq):
        return UtilEq(new_of[node.player], node.value)
    if not isinstance(node, Node):
        return node
    return type(node)(*(_renumbered(getattr(node, name), new_of) for name in node.__match_args__))


@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=2, deadline=None)
def test_renumbering_the_players_moves_every_extension_with_the_states(shape, seed):
    rng, pick = np.random.default_rng(seed), random.Random(seed)
    game = _game(GameForm(_names(size) for size in shape), rng)
    n = len(shape)
    # New player j + 1 is old player order[j] + 1, with its axis and utilities.
    order = list(rng.permutation(n))
    while order == sorted(order):
        order = list(rng.permutation(n))
    new_of = {old + 1: j + 1 for j, old in enumerate(order)}
    form = GameForm(game.form.strategy_sets[old] for old in order)
    codes = game.outcomes.codes.reshape(*shape, n).transpose(*order, n)[..., order]
    labels = game.outcomes.label_codes.reshape(shape).transpose(order)
    outcomes = Outcomes(VALUES, codes.reshape(-1, n), LABELS, labels.reshape(-1))
    other = StrategicGame(form, outcomes)
    original, renumbered = MaslModel(game), MaslModel(other)
    cells = np.unravel_index(np.arange(original.size), shape)
    moved = np.ravel_multi_index([cells[old] for old in order], [shape[old] for old in order])
    for i in pick.sample(range(original.size), 20):
        names = original.state_key(i).split(",")
        assert renumbered.state_key(int(moved[i])).split(",") == [names[old] for old in order]
    formulas = [random_eval_formula(pick, game, depth=3) for _ in range(6)]
    for formula in formulas:
        assert np.array_equal(
            extension(renumbered, _renumbered(formula, new_of))[moved], extension(original, formula)
        )
    sig, new_sig = Signature.from_game(game), Signature.from_game(other)
    assert np.array_equal(
        extension(renumbered, build_property("nashHere", new_sig))[moved],
        extension(original, build_property("nashHere", sig)),
    )


@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=2, deadline=None)
def test_a_positive_affine_map_of_one_players_utilities_keeps_nash_and_dominance(shape, seed):
    rng, pick = np.random.default_rng(seed), random.Random(seed)
    game = _game(GameForm(_names(size) for size in shape), rng)
    player = pick.randint(1, len(shape))
    scale, shift = pick.choice((Fraction(1, 3), 2, 5)), pick.choice((Fraction(-7, 2), 0, 1))
    mapped = [scale * v + shift for v in VALUES]
    values = sorted(set(VALUES) | set(mapped))
    old_codes = np.array([values.index(v) for v in VALUES], dtype=np.uint8)
    new_codes = np.array([values.index(w) for w in mapped], dtype=np.uint8)
    codes = old_codes[game.outcomes.codes]
    codes[:, player - 1] = new_codes[game.outcomes.codes[:, player - 1]]
    other = StrategicGame(game.form, Outcomes(tuple(values), codes, LABELS, game.outcomes.label_codes))
    before, after = MaslModel(game), MaslModel(other)
    sig, new_sig = Signature.from_game(game), Signature.from_game(other)
    properties = [("nashHere", {})] + [
        ("weakDominance", {"player": p, "strategy": pick.choice(names)})
        for p, names in enumerate(sig.strategy_sets, 1)
    ]
    for name, params in properties:
        assert np.array_equal(
            extension(after, build_property(name, new_sig, **params)),
            extension(before, build_property(name, sig, **params)),
        ), (name, params)
