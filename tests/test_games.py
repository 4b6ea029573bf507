"""Game forms, the outcome store, and the solution concepts: exact best
responses against the brute-force oracle."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import (
    GameError,
    GameForm,
    OutcomeRecord,
    Outcomes,
    Signature,
    StrategicGame,
    all_profiles,
    best_response,
)
from stratlogic.games import to_fraction
from stratlogic.catalog import prisoners_dilemma, vote3_game

from builders import combine, from_outcomes
from game_oracle import is_best_response, nash_set, util, weakly_dominant
from gens import random_game


# --------------------------------------------------------------------------
# GameForm


def test_form_requires_two_players():
    with pytest.raises(GameError):
        GameForm([("a", "b")])


def test_form_rejects_empty_strategy_set():
    with pytest.raises(GameError):
        GameForm([("a",), ()])


def test_form_rejects_duplicate_names():
    with pytest.raises(GameError):
        GameForm([("a", "a"), ("b",)])


@pytest.mark.parametrize("bad", ["a,b", "a b", '"a"', "1a", ""])
def test_form_rejects_non_identifier_names(bad):
    with pytest.raises(GameError):
        GameForm([(bad,), ("b", "c")])


def test_players_are_one_based():
    form = GameForm([("a", "b"), ("x", "y", "z")])
    assert list(form.players) == [1, 2]
    assert form.strategies(1) == ("a", "b")
    assert form.strategies(2) == ("x", "y", "z")
    with pytest.raises(GameError):
        form.strategies(3)
    with pytest.raises(GameError):
        form.strategies(0)


def test_all_profiles_order_and_count():
    form = GameForm([("a", "b"), ("x", "y", "z")])
    states = all_profiles(form)
    assert len(states) == form.profile_count() == 6
    # player 1 varies slowest
    assert states == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_profile_key_round_trip():
    form = GameForm([("a", "b"), ("x", "y", "z"), ("p", "q")])
    for s in all_profiles(form):
        assert form.profile_from_key(form.profile_key(s)) == s
    assert form.profile_key((1, 2, 0)) == "b,z,p"


def test_profile_from_names_errors():
    form = GameForm([("a", "b"), ("x", "y")])
    with pytest.raises(GameError):
        form.profile_from_names(["a"])
    with pytest.raises(GameError):
        form.profile_from_names(["a", "nope"])
    with pytest.raises(GameError):
        form.profile_from_key("x,a")  # names swapped across positions


def test_validate_profile():
    form = GameForm([("a", "b"), ("x", "y")])
    form.validate_profile((1, 0))
    with pytest.raises(GameError):
        form.validate_profile((1,))
    with pytest.raises(GameError):
        form.validate_profile((2, 0))


def test_combine_assembles_profiles():
    form = GameForm([("a", "b"), ("x", "y"), ("p", "q")])
    s = combine(form, {1, 3}, {1: "b", 3: "q"}, {2: "x"})
    assert form.profile_key(s) == "b,x,q"
    with pytest.raises(GameError):
        combine(form, {1, 3}, {1: "b"}, {2: "x"})  # missing member choice
    with pytest.raises(GameError):
        combine(form, {1}, {1: "b"}, {2: "x"})  # player 3 uncovered


# --------------------------------------------------------------------------
# to_fraction / OutcomeRecord


def test_to_fraction_accepts_common_shapes():
    assert to_fraction(2) == Fraction(2)
    assert to_fraction("3/4") == Fraction(3, 4)
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    # floats go through their decimal rendering, so 0.5 is exactly 1/2
    assert to_fraction(0.5) == Fraction(1, 2)


def test_outcome_record_validation():
    rec = OutcomeRecord("L", [1, "1/2"], winners=["a"])
    assert rec.utils == (Fraction(1), Fraction(1, 2))
    assert rec.winners == frozenset({"a"})
    assert OutcomeRecord("L", [0, 0]).winners is None
    with pytest.raises(GameError):
        OutcomeRecord("L", [0, 0], winners=[])


def test_game_checks_utils_arity():
    form = GameForm([("a",), ("x", "y")])
    good = {s: OutcomeRecord(form.profile_key(s), [0, 0]) for s in all_profiles(form)}
    from_outcomes(form, good)
    bad = dict(good)
    bad[(0, 1)] = OutcomeRecord("oops", [0, 0, 0])
    with pytest.raises(GameError):
        from_outcomes(form, bad)


def test_game_requires_total_outcomes():
    form = GameForm([("a",), ("x", "y")])
    table = {(0, 0): OutcomeRecord("one", [0, 0])}
    with pytest.raises(GameError):
        from_outcomes(form, table)
    table[(0, 1)] = OutcomeRecord("two", [0, 0])
    table[(5, 5)] = OutcomeRecord("extra", [0, 0])
    with pytest.raises(GameError):
        from_outcomes(form, table)


def test_profile_index_matches_enumeration_order():
    g = vote3_game()
    for i, s in enumerate(all_profiles(g.form)):
        assert g.profile_index(s) == i


# --------------------------------------------------------------------------
# The PD fixture


def test_pd_payoffs_and_range():
    pd = prisoners_dilemma()
    assert util(pd, (0, 0), 1) == 2 and util(pd, (0, 0), 2) == 2
    assert util(pd, (0, 1), 1) == 0 and util(pd, (0, 1), 2) == 3
    assert util(pd, (1, 0), 1) == 3 and util(pd, (1, 0), 2) == 0
    assert util(pd, (1, 1), 1) == 1 and util(pd, (1, 1), 2) == 1
    sig = Signature.from_game(pd)
    assert sig.util_range == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert sig.alternatives is None


def test_pd_nash_and_dominance():
    pd = prisoners_dilemma()
    assert nash_set(pd) == {(1, 1)}  # (d,d)
    assert is_best_response(pd, (1, 1), 1)
    assert is_best_response(pd, (1, 1), 2)
    assert not is_best_response(pd, (0, 0), 1)
    assert weakly_dominant(pd, 1, "d")
    assert weakly_dominant(pd, 2, "d")
    assert not weakly_dominant(pd, 1, "c")
    with pytest.raises(GameError):
        weakly_dominant(pd, 1, "nope")


def test_vote3_game_has_winner_data():
    g = vote3_game()
    sig = Signature.from_game(g)
    assert sig.alternatives == ("a", "b", "c")
    assert g.outcome(g.form.profile_from_key("a,b,c")).winners == frozenset("abc")
    assert sig.util_range == (Fraction(0), Fraction(1), Fraction(2))


# --------------------------------------------------------------------------
# Dual-route check: nash_set / weakly_dominant vs a literal re-derivation


def _nash_by_definition(game: StrategicGame) -> set:
    found = set()
    for s in all_profiles(game.form):
        ok = True
        for player in game.form.players:
            pos = player - 1
            here = util(game, s, player)
            for alt in range(len(game.form.strategy_sets[pos])):
                t = s[:pos] + (alt,) + s[pos + 1 :]
                if util(game, t, player) > here:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(s)
    return found


def _dominant_by_definition(game: StrategicGame, player: int, name: str) -> bool:
    pos = player - 1
    a = game.form.strategy_index(player, name)
    others = [
        range(len(names))
        for i, names in enumerate(game.form.strategy_sets)
        if i != pos
    ]
    for rest in product(*others):
        s = rest[:pos] + (a,) + rest[pos:]
        for b in range(len(game.form.strategy_sets[pos])):
            t = rest[:pos] + (b,) + rest[pos:]
            if util(game, t, player) > util(game, s, player):
                return False
    return True


def test_solution_concepts_agree_with_literal_enumeration():
    rng = random.Random(42)
    for _ in range(40):
        game = random_game(rng)
        assert nash_set(game) == _nash_by_definition(game)
        for player in game.form.players:
            for name in game.form.strategies(player):
                assert weakly_dominant(game, player, name) == _dominant_by_definition(
                    game, player, name
                )


def test_games_with_singleton_strategies_always_have_equilibria():
    rng = random.Random(7)
    for _ in range(20):
        game = random_game(rng, size_range=(1, 1))
        # one profile, trivially an equilibrium
        assert nash_set(game) == {tuple(0 for _ in range(game.form.n))}


# --------------------------------------------------------------------------
# Exact best responses on the codes against the brute-force oracle

_UTILS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(-3, 2))


@st.composite
def _fractional_games(draw) -> StrategicGame:
    """Games of 2 to 4 players with 1 to 3 strategies each and utilities
    drawn from a few fractions, so ties and 1-strategy players are common."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    form = GameForm([tuple("abc"[:k]) for k in sizes])
    pool = st.sampled_from(
        draw(st.lists(st.sampled_from(_UTILS), min_size=1, max_size=3, unique=True))
    )
    utils = st.lists(pool, min_size=form.n, max_size=form.n)
    outcomes = {s: OutcomeRecord(form.profile_key(s), draw(utils)) for s in all_profiles(form)}
    return from_outcomes(form, outcomes)


@given(_fractional_games())
@settings(max_examples=150, deadline=None)
def test_best_response_gives_the_oracles_nash_and_dominance(game):
    grids = [best_response(game, player) for player in game.form.players]
    nash = np.logical_and.reduce(grids).reshape(-1)
    states = all_profiles(game.form)
    assert {states[i] for i in np.flatnonzero(nash)} == nash_set(game)
    for player, grid in zip(game.form.players, grids):
        for a, name in enumerate(game.form.strategies(player)):
            dominant = bool(grid.take(a, axis=player - 1).all())
            assert dominant == weakly_dominant(game, player, name)


def test_best_response_rejects_unknown_players():
    with pytest.raises(GameError):
        best_response(prisoners_dilemma(), 3)


# --------------------------------------------------------------------------
# The outcome store


def test_outcomes_equality_is_broken_by_one_changed_code_label_or_winner():
    table = vote3_game().outcomes
    assert table == replace(table)
    codes = table.codes.copy()
    codes[5, 1] = (codes[5, 1] + 1) % len(table.values)
    label_codes = table.label_codes.copy()
    label_codes[5] = (label_codes[5] + 1) % len(table.labels)
    winners = table.winners.copy()
    winners[5, 0] = ~winners[5, 0]
    for changed in (
        replace(table, codes=codes),
        replace(table, label_codes=label_codes),
        replace(table, winners=winners),
        replace(table, winners=None, alternatives=None),
    ):
        assert changed != table and table != changed


def test_equal_records_give_equal_stores_and_games():
    game = vote3_game()
    records = [game.outcome(s) for s in all_profiles(game.form)]
    assert Outcomes.from_records(records, 3) == game.outcomes
    table = dict(zip(all_profiles(game.form), records))
    assert from_outcomes(game.form, table) == game


def test_games_are_not_hashable():
    # The store holds arrays; no game is ever used as a key.
    with pytest.raises(TypeError):
        hash(prisoners_dilemma())


def test_game_checks_the_store_against_the_form():
    pd = prisoners_dilemma()
    with pytest.raises(GameError, match="one outcome per profile"):
        StrategicGame(pd.form, Outcomes.from_records([pd.outcome((0, 0))], 2))
    three = Outcomes.from_records([OutcomeRecord("x", [0, 0, 0])] * 4, 3)
    with pytest.raises(GameError, match="has 3 utilities for 2 players"):
        StrategicGame(pd.form, three)
