"""Game forms, outcome tables, and the brute-force solution concepts."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from stratlogic import (
    GameError,
    GameForm,
    OutcomeRecord,
    Signature,
    StrategicGame,
    all_profiles,
    combine,
    is_best_response,
    nash_set,
    weakly_dominant,
)
from stratlogic.games import to_fraction
from stratlogic.catalog import prisoners_dilemma, vote3_game

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
    StrategicGame.from_outcomes(form, good)
    bad = dict(good)
    bad[(0, 1)] = OutcomeRecord("oops", [0, 0, 0])
    with pytest.raises(GameError):
        StrategicGame.from_outcomes(form, bad)


def test_game_requires_total_outcomes():
    form = GameForm([("a",), ("x", "y")])
    table = {(0, 0): OutcomeRecord("one", [0, 0])}
    with pytest.raises(GameError):
        StrategicGame.from_outcomes(form, table)
    table[(0, 1)] = OutcomeRecord("two", [0, 0])
    table[(5, 5)] = OutcomeRecord("extra", [0, 0])
    with pytest.raises(GameError):
        StrategicGame.from_outcomes(form, table)


def test_profile_index_matches_enumeration_order():
    g = vote3_game()
    for i, s in enumerate(all_profiles(g.form)):
        assert g.profile_index(s) == i


# --------------------------------------------------------------------------
# The PD fixture


def test_pd_payoffs_and_range():
    pd = prisoners_dilemma()
    assert pd.util((0, 0), 1) == 2 and pd.util((0, 0), 2) == 2
    assert pd.util((0, 1), 1) == 0 and pd.util((0, 1), 2) == 3
    assert pd.util((1, 0), 1) == 3 and pd.util((1, 0), 2) == 0
    assert pd.util((1, 1), 1) == 1 and pd.util((1, 1), 2) == 1
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
            here = game.util(s, player)
            for alt in range(len(game.form.strategy_sets[pos])):
                t = s[:pos] + (alt,) + s[pos + 1 :]
                if game.util(t, player) > here:
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
            if game.util(t, player) > game.util(s, player):
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
