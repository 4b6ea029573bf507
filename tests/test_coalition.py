"""Coalition logic: the linear encoding, the paper's translation, and the
grid-semantics oracle they must both agree with."""

from __future__ import annotations

import random
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import (
    ADV,
    Concrete,
    EvalError,
    IntensionalModel,
    Label,
    MaslModel,
    Outcomes,
    Signature,
    UtilEq,
    Winner,
    all_profiles,
    cl_extension,
    coalition_vectors,
    epistemic_lift,
    extension,
    render,
    satisfies,
    translate,
)
from stratlogic.coalition import CLAnd, CLAtom, CLBox, CLNot, CLTop, cl_disj, render_cl
from stratlogic.syntax import CUR, Box, Diamond, Not, Or, Top, Vec, Vector
from stratlogic.catalog import commitment_confusion, prisoners_dilemma, vote3_game

import coalition_oracle
import render_oracle
from game_oracle import util
from gens import random_cl_formula, random_game

PD = prisoners_dilemma()


# --------------------------------------------------------------------------
# Construction / rendering


def test_cl_atom_accepts_atoms_only():
    CLAtom(UtilEq(1, 0))
    CLAtom(Label("x"))
    with pytest.raises(Exception):
        CLAtom(Not(UtilEq(1, 0)))
    with pytest.raises(Exception):
        CLAtom(Top())


def test_render_cl():
    f = CLBox(frozenset({2, 1}), CLAnd(CLAtom(UtilEq(1, 0)), CLNot(CLTop())))
    assert render_cl(f) == "[C {1,2}] (u1=0 & ~T)"
    assert render_cl(CLBox(frozenset(), CLTop())) == "[C {}] T"
    assert render_cl(CLAnd(CLNot(CLTop()), CLAtom(Label("ok")))) == "~T & label(ok)"


def test_cl_disj_shape():
    a, b = CLAtom(UtilEq(1, 0)), CLAtom(UtilEq(2, 0))
    assert cl_disj([a, b]) == CLNot(CLAnd(CLNot(a), CLNot(b)))
    assert cl_disj([]) == CLNot(CLTop())
    assert cl_disj([a]) == CLNot(CLNot(a))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["pd", "vote3"]))
@settings(max_examples=40, deadline=None)
def test_render_cl_matches_the_recursive_oracle(seed, name):
    rng = random.Random(seed)
    game = PD if name == "pd" else vote3_game()
    for _ in range(3):
        f = random_cl_formula(rng, game, 6)
        if game.outcomes.alternatives:
            winner = CLAtom(Winner(rng.choice(game.outcomes.alternatives)))
            f = rng.choice([CLAnd(f, CLNot(winner)), CLAnd(winner, f), CLBox({1}, CLAnd(f, f))])
        assert render_cl(f) == render_oracle.coalition(f)
        # Rendered again, with the atoms' spellings kept.
        assert render_cl(CLNot(f)) == render_oracle.coalition(CLNot(f))


def test_a_long_cl_conjunction_chain_renders_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    left = right = CLTop()
    for _ in range(10_000):
        left, right = CLAnd(left, CLNot(CLTop())), CLAnd(CLNot(CLTop()), right)
    assert render_cl(left) == "T" + " & ~T" * 10_000
    assert render_cl(right) == "~T & (" * 9_999 + "~T & T" + ")" * 9_999


def test_render_cl_rejects_other_syntaxes():
    for bad in (CLNot(UtilEq(1, 0)), CLAnd(CLTop(), Top()), CLBox({1}, Vec(Vector([CUR, CUR])))):
        with pytest.raises(TypeError, match="cannot render coalition formula"):
            render_cl(bad)
    with pytest.raises(TypeError, match="cannot render CLTop"):
        render(CLTop())



# --------------------------------------------------------------------------
# Semantics


def test_cl_box_hand_cases_on_pd():
    model = MaslModel(PD)
    # player 1 cannot force u1=3 (needs the opponent on c)
    assert not cl_extension(model, CLBox(frozenset({1}), CLAtom(UtilEq(1, 3)))).any()
    # player 1 can force u1 ∈ {1,3} by playing d
    good = cl_disj([CLAtom(UtilEq(1, 1)), CLAtom(UtilEq(1, 3))])
    assert cl_extension(model, CLBox(frozenset({1}), good)).all()
    # the grand coalition can hit any single outcome
    assert cl_extension(model, CLBox(frozenset({1, 2}), CLAtom(UtilEq(1, 3)))).all()
    # the empty coalition forces only what is true everywhere
    assert not cl_extension(model, CLBox(frozenset(), CLAtom(UtilEq(1, 3)))).any()
    top_everywhere = CLBox(frozenset(), CLTop())
    assert cl_extension(model, top_everywhere).all()


def test_cl_box_is_state_independent():
    rng = random.Random(31)
    for _ in range(15):
        game = random_game(rng)
        model = MaslModel(game)
        body = random_cl_formula(rng, game, 2)
        members = frozenset(
            p for p in game.form.players if rng.random() < 0.5
        )
        ext = cl_extension(model, CLBox(members, body))
        assert ext.all() or not ext.any()


def test_cl_monotone_in_coalition():
    rng = random.Random(37)
    game = vote3_game()
    model = MaslModel(game)
    players = list(game.form.players)
    for _ in range(25):
        body = random_cl_formula(rng, game, 2)
        small = frozenset(p for p in players if rng.random() < 0.4)
        big = small | frozenset(p for p in players if rng.random() < 0.4)
        ext_small = cl_extension(model, CLBox(small, body))
        ext_big = cl_extension(model, CLBox(big, body))
        assert (~ext_small | ext_big).all()  # small ⊆ big pointwise


def test_cl_connectives_pointwise():
    model = MaslModel(PD)
    a, b = CLAtom(UtilEq(1, 0)), CLAtom(Label("dd"))
    ea = cl_extension(model, a)
    eb = cl_extension(model, b)
    assert np.array_equal(cl_extension(model, CLNot(a)), ~ea)
    assert np.array_equal(cl_extension(model, CLAnd(a, b)), ea & eb)


def test_cl_extension_cached_per_model():
    model = MaslModel(PD)
    f = CLBox(frozenset({1}), CLAtom(UtilEq(1, 1)))
    assert cl_extension(model, f) is cl_extension(model, f)
    assert not cl_extension(model, f).flags.writeable


def test_cl_extension_shares_the_model_cache():
    model = MaslModel(PD)
    atom = UtilEq(1, 1)
    assert cl_extension(model, CLAtom(atom)) is extension(model, atom)
    assert cl_extension(model, CLNot(CLAtom(atom))) is extension(model, Not(atom))


def test_cl_extension_needs_one_full_profile_grid():
    model, _ = commitment_confusion()
    with pytest.raises(EvalError):
        cl_extension(model, CLBox(frozenset({1}), CLAtom(UtilEq(1, 1))))
    # two full copies of the grid are not one grid either
    worlds = [(k, s) for k in range(2) for s in all_profiles(PD.form)]
    twice = IntensionalModel(
        PD.form,
        [("G", PD.form), ("H", PD.form)],
        worlds,
        Outcomes.from_records([PD.outcomes.record(row) for row in range(4)] * 2, 2),
    )
    with pytest.raises(EvalError):
        cl_extension(twice, CLBox(frozenset({1}), CLAtom(UtilEq(1, 1))))
    # a lift's worlds are exactly the game's profiles
    lift = epistemic_lift(PD)
    f = CLBox(frozenset({1}), CLNot(CLAtom(UtilEq(1, 3))))
    assert np.array_equal(cl_extension(lift, f), cl_extension(MaslModel(PD), f))


def test_cl_extension_takes_one_grid_in_any_order():
    game = vote3_game()
    order = list(range(27))
    random.Random(3).shuffle(order)
    profiles = all_profiles(game.form)
    model = IntensionalModel(
        game.form,
        [("G", game.form)],
        [(0, profiles[row]) for row in order],
        Outcomes.from_records([game.outcomes.record(row) for row in order], 3),
    )
    grid = MaslModel(game)
    for f in (
        CLBox(frozenset({1}), CLAtom(UtilEq(1, 1))),
        CLBox(frozenset({2, 3}), CLNot(CLBox(frozenset({1}), CLAtom(UtilEq(2, 0))))),
    ):
        got = cl_extension(model, f)
        assert np.array_equal(got, coalition_oracle.cl_extension(model, f))
        assert np.array_equal(got, cl_extension(grid, f)[order])


def test_cl_check_matches_extension():
    model = MaslModel(PD)
    f = CLBox(frozenset({1}), CLAtom(UtilEq(1, 1)))
    ext = cl_extension(model, f)
    for i in range(4):
        assert cl_extension(model, f)[model.index(i)] == bool(ext[i])


def test_cl_atom_semantics_match_records_directly():
    rng = random.Random(41)
    for _ in range(10):
        game = random_game(rng)
        model = MaslModel(game)
        states = all_profiles(game.form)
        for player in game.form.players:
            for value in Signature.from_game(game).util_range:
                ext = cl_extension(model, CLAtom(UtilEq(player, value)))
                for i, s in enumerate(states):
                    assert ext[i] == (util(game, s, player) == value)


def test_cl_box_is_two_vectors():
    # <(??,!!,!!)> [(!!,??,??)] u1=1: player 1 moves alone, then whatever
    # players 2 and 3 do, u1=1 holds.
    game = vote3_game()
    model = MaslModel(game)
    some = Vector([ADV, CUR, CUR])
    every = Vector([CUR, ADV, ADV])
    f = CLBox(frozenset({1}), CLAtom(UtilEq(1, 1)))
    assert cl_extension(model, f) is extension(
        model, Diamond(Vec(some), Box(Vec(every), UtilEq(1, 1)))
    )


def test_unknown_coalition_player_is_reported_before_any_atom():
    # Only formulas built through the API get here: the parser rejects a
    # player outside the game.  The box is encoded before anything is
    # evaluated, so its player is reported ahead of the bad atom below it,
    # which the bottom-up grid oracle meets first.
    model = MaslModel(PD)
    f = CLBox(frozenset({5}), CLAtom(UtilEq(1, 99)))
    with pytest.raises(EvalError, match="coalition mentions unknown player 5"):
        cl_extension(model, f)
    with pytest.raises(EvalError, match="utility value 99 is not in the model's range"):
        coalition_oracle.cl_extension(model, f)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_encoding_and_translation_match_the_grid_oracle(seed, lifted):
    """Random 2-4-player games or their lifts, with nested boxes and the
    empty and grand coalitions: the grid oracle, the linear encoding and
    the paper's translation give one mask."""
    rng = random.Random(seed)
    game = random_game(rng, max_players=4, size_range=(2 if lifted else 1, 3))
    model = epistemic_lift(game) if lifted else MaslModel(game)
    players = list(game.form.players)

    def some_coalition():
        return frozenset(p for p in players if rng.random() < 0.5)

    def body():
        return random_cl_formula(rng, game, 2)

    formulas = [
        random_cl_formula(rng, game, 4),
        CLBox(frozenset(), body()),
        CLBox(frozenset(players), body()),
        CLBox(some_coalition(), CLNot(CLBox(some_coalition(), body()))),
        CLAnd(CLBox(frozenset(players), CLBox(frozenset(), body())), body()),
    ]
    for f in formulas:
        want = coalition_oracle.cl_extension(model, f)
        assert np.array_equal(cl_extension(model, f), want)
        assert np.array_equal(extension(model, translate(f, game.form)), want)


# --------------------------------------------------------------------------
# Commitment vectors


def test_coalition_vectors_pd():
    vecs = coalition_vectors({1}, PD.form)
    assert vecs == [
        Vector([Concrete("c"), ADV]),
        Vector([Concrete("d"), ADV]),
    ]
    assert coalition_vectors(set(), PD.form) == [Vector([ADV, ADV])]


def test_coalition_vectors_enumeration_order():
    form = vote3_game().form
    vecs = coalition_vectors({3, 1}, form)
    # members ascending; product with player 1 varying slowest
    combos = [(a, c) for a in "abc" for c in "abc"]
    assert len(vecs) == 9
    for vec, (a, c) in zip(vecs, combos):
        assert vec.terms[0] == Concrete(a)
        assert vec.terms[1] is ADV
        assert vec.terms[2] == Concrete(c)


def test_coalition_vectors_reject_unknown_players():
    with pytest.raises(Exception):
        coalition_vectors({5}, PD.form)


# --------------------------------------------------------------------------
# Translation


def test_translate_structure():
    f = CLBox(frozenset({1}), CLAtom(UtilEq(1, 1)))
    got = translate(f, PD.form)
    want = Or(
        Box(Vec(Vector([Concrete("c"), ADV])), UtilEq(1, 1)),
        Box(Vec(Vector([Concrete("d"), ADV])), UtilEq(1, 1)),
    )
    assert got == want
    assert translate(CLTop(), PD.form) == Top()
    assert translate(CLAtom(Label("x")), PD.form) == Label("x")
    assert translate(CLNot(CLTop()), PD.form) == Not(Top())


def test_translate_empty_coalition_is_global_box():
    f = CLBox(frozenset(), CLAtom(UtilEq(1, 0)))
    got = translate(f, PD.form)
    assert got == Box(Vec(Vector([ADV, ADV])), UtilEq(1, 0))


def test_translation_agreement_on_sweep():
    rng = random.Random(47)
    for _ in range(30):
        game = random_game(rng)
        model = MaslModel(game)
        for _ in range(2):
            f = random_cl_formula(rng, game, 3)
            direct = cl_extension(model, f)
            compiled = extension(model, translate(f, game.form))
            assert np.array_equal(direct, compiled)
            for i in range(model.size):
                holds = cl_extension(model, f)[model.index(i)]
                assert holds == satisfies(model, i, translate(f, game.form))
