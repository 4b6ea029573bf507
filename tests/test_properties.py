"""The named game-property formulas and abbreviation expansions."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import properties
from stratlogic import (
    ADV,
    And,
    Box,
    Concrete,
    CUR,
    Diamond,
    GameError,
    MaslModel,
    Not,
    Or,
    Signature,
    UtilEq,
    Vector,
    VectorAtom,
    build_property,
    render,
    epistemic_lift,
    extension,
    valid_in_model,
    satisfies,
)
from stratlogic.properties import (
    PROPERTY_NAMES,
    knowledge,
    nash_here,
    payoff_geq,
    payoff_gt,
    strategy_proof_inner,
    tit_for_tat,
)
from stratlogic.syntax import BOT, Agent, AgentConv, Choice, Seq, Star, Vec
from stratlogic.voting import ConstantRule, DictatorRule, induced_game
from stratlogic.catalog import (
    prisoners_dilemma,
    three_voter_ballots,
    tiebreak3,
    vote3_game,
    vote3_tiebreak_game,
)

from dense_oracle import program_relation, relation_via_pre
import builders
from builders import expand, node_objects
from game_oracle import nash_set, weakly_dominant
from gens import random_game
import property_oracle

PD = prisoners_dilemma()
PD_SIG = Signature.from_game(PD)
ALTS = ("a", "b", "c")


def _keys(model, mask):
    return [model.state_key(i) for i in np.flatnonzero(mask)]


# --------------------------------------------------------------------------
# Expansions


def test_payoff_geq_expands_over_util_range():
    assert expand("payoffGeq", PD_SIG, player=2, value=2) == Or(
        UtilEq(2, 2), UtilEq(2, 3)
    )
    assert expand("payoffGt", PD_SIG, player=1, value=3) == BOT
    assert payoff_geq(PD_SIG, 1, 0) == Or(
        Or(Or(UtilEq(1, 0), UtilEq(1, 1)), UtilEq(1, 2)), UtilEq(1, 3)
    )
    assert payoff_gt(PD_SIG, 1, 2) == UtilEq(1, 3)


def test_box_switch_shape():
    phi = UtilEq(1, 0)
    f = expand("boxSwitch", PD_SIG, player=1, body=phi)
    want = And(
        Box(Vec(Vector([Concrete("c"), CUR])), phi),
        Box(Vec(Vector([Concrete("d"), CUR])), phi),
    )
    assert f == want


def test_box_any_shape():
    phi = UtilEq(2, 0)
    f = expand("boxAny", PD_SIG, player=2, body=phi)
    want = And(
        Box(Vec(Vector([ADV, Concrete("c")])), phi),
        Box(Vec(Vector([ADV, Concrete("d")])), phi),
    )
    assert f == want


def test_switch_conjunction_sizes_match_strategy_counts():
    sig = Signature.from_game(vote3_game())
    for player in (1, 2, 3):
        f = expand("boxSwitch", sig, player=player, body=UtilEq(player, 0))

        def count(node):
            if isinstance(node, And):
                return count(node.left) + count(node.right)
            return 1

        assert count(f) == 3


def test_diamond_any_state():
    f = expand("diamondAnyState", PD_SIG, body=UtilEq(1, 3))
    assert f == Diamond(Vec(Vector([ADV, ADV])), UtilEq(1, 3))


def test_expand_rejects_bad_usage():
    with pytest.raises(Exception):
        expand("noSuchAbbrev", PD_SIG)
    with pytest.raises(Exception):
        expand("boxSwitch", PD_SIG, player=1)  # body missing
    with pytest.raises(Exception):
        expand("payoffGeq", PD_SIG, player=1, value=0, extra=1)


def test_every_utileq_value_in_builds_is_in_range():
    sig = Signature.from_game(vote3_game())
    seen = set()

    def walk(node):
        if isinstance(node, UtilEq):
            seen.add(node.value)
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if hasattr(child, "__dataclass_fields__"):
                walk(child)

    for name in ("nashHere", "resolute", "strategyProof", "nonImposed"):
        walk(build_property(name, sig))
    walk(build_property("dictator", sig, player=2))
    assert seen <= set(sig.util_range)


# --------------------------------------------------------------------------
# nashHere / gameIsNash / weakDominance


def test_nash_here_on_pd():
    model = MaslModel(PD)
    assert _keys(model, extension(model, nash_here(PD_SIG))) == ["d,d"]


def test_nash_here_matches_oracle_on_sweep():
    rng = random.Random(11)
    for _ in range(25):
        game = random_game(rng)
        model = MaslModel(game)
        sig = Signature.from_game(game)
        got = {
            game.form.profile_from_key(k)
            for k in _keys(model, extension(model, nash_here(sig)))
        }
        assert got == nash_set(game)


def test_game_is_nash_is_state_independent_and_true_on_pd():
    model = MaslModel(PD)
    ext = extension(model, build_property("gameIsNash", PD_SIG))
    assert ext.all()


def test_weak_dominance_matches_oracle():
    model = MaslModel(PD)
    assert valid_in_model(model, build_property("weakDominance", PD_SIG, player=1, strategy="d"))
    assert not valid_in_model(
        model, build_property("weakDominance", PD_SIG, player=1, strategy="c")
    )
    rng = random.Random(13)
    for _ in range(15):
        game = random_game(rng)
        model = MaslModel(game)
        sig = Signature.from_game(game)
        for player in game.form.players:
            for name in game.form.strategies(player):
                formula = build_property(
                    "weakDominance", sig, player=player, strategy=name
                )
                ext = extension(model, formula)
                # state-independent: everywhere or nowhere
                assert ext.all() or not ext.any()
                assert bool(ext.all()) == weakly_dominant(game, player, name)


# --------------------------------------------------------------------------
# Voting properties on the worked games


def test_plurality_rule_formula():
    plur = MaslModel(vote3_game())
    tb = MaslModel(vote3_tiebreak_game())
    sig = Signature.from_game(vote3_game())
    f = build_property("pluralityRule", sig)
    # valid wherever profiles with a strict plurality winner elect it
    assert valid_in_model(plur, f)
    assert valid_in_model(tb, f)
    const_game = induced_game(ConstantRule(ALTS, "c"), three_voter_ballots())
    assert not valid_in_model(MaslModel(const_game), f)


def test_resolute_formula():
    sig = Signature.from_game(vote3_game())
    f = build_property("resolute", sig)
    plur = MaslModel(vote3_game())
    tb = MaslModel(vote3_tiebreak_game())
    assert valid_in_model(tb, f)
    ext = extension(plur, f)
    assert not ext.any()  # state-independent, false: ties exist


def test_strategy_proof_formula():
    # The boxed formula says "no player can improve at any state"; the
    # rule-level notion is its inner conjunct at the truthful cast profile.
    sig = Signature.from_game(vote3_game())
    f = build_property("strategyProof", sig)
    tb = MaslModel(vote3_tiebreak_game())
    assert not extension(tb, f).any()
    assert not satisfies(tb, "a,b,c", strategy_proof_inner(sig))

    dict_game = induced_game(DictatorRule(ALTS, 1), three_voter_ballots())
    dm = MaslModel(dict_game)
    # even a dictator can cast a vote they later regret, so the boxed
    # all-states version fails ...
    assert not valid_in_model(dm, f)
    # ... but nobody gains by deviating from the truthful profile
    assert satisfies(dm, "a,b,c", strategy_proof_inner(sig))


def test_non_imposed_formula():
    sig = Signature.from_game(vote3_game())
    f = build_property("nonImposed", sig)
    assert valid_in_model(MaslModel(vote3_game()), f)
    assert valid_in_model(MaslModel(vote3_tiebreak_game()), f)
    const_game = induced_game(ConstantRule(ALTS, "a"), three_voter_ballots())
    assert not valid_in_model(MaslModel(const_game), f)


def test_dictator_formula_on_dictator_game():
    dict_game = induced_game(DictatorRule(ALTS, 1), three_voter_ballots())
    model = MaslModel(dict_game)
    sig = Signature.from_game(dict_game)
    assert valid_in_model(model, build_property("dictator", sig, player=1))
    assert not valid_in_model(model, build_property("dictator", sig, player=2))
    assert not valid_in_model(model, build_property("dictator", sig, player=3))


def test_tiebreak_nash_claims():
    model = MaslModel(vote3_tiebreak_game())
    sig = Signature.from_game(vote3_tiebreak_game())
    ext = extension(model, nash_here(sig))
    keys = set(_keys(model, ext))
    assert "a,b,c" not in keys
    assert "a,c,c" in keys


# --------------------------------------------------------------------------
# Epistemic properties


def test_knowledge_program_shape():
    assert knowledge(2) == Star(Choice(Agent(2), AgentConv(2)))


def test_knowing_dictator_on_lift():
    dict_game = induced_game(DictatorRule(ALTS, 1), three_voter_ballots())
    lift = epistemic_lift(dict_game)
    sig = Signature.from_game(dict_game)
    # dictator(1) is valid, so it is also known everywhere
    assert valid_in_model(lift, build_property("knowingDictator", sig, player=1))
    assert not valid_in_model(lift, build_property("knowingDictator", sig, player=2))


# --------------------------------------------------------------------------
# Tit-for-tat


def test_tit_for_tat_requires_two_players():
    sig = Signature.from_game(vote3_game())
    with pytest.raises(Exception):
        tit_for_tat(sig, 1)


def test_tit_for_tat_one_step_copies_opponent():
    model = MaslModel(PD)
    program = tit_for_tat(PD_SIG, 1)
    assert isinstance(program, Star)
    one_step = relation_via_pre(model, program.body)
    assert np.array_equal(one_step, program_relation(model, program.body))
    states = ["c,c", "c,d", "d,c", "d,d"]
    for s in states:
        for t in states:
            s_opp = s.split(",")[1]
            t_own = t.split(",")[0]
            assert one_step[model.index(s), model.index(t)] == (t_own == s_opp)
    closure = relation_via_pre(model, program)
    assert closure.diagonal().all()
    assert np.array_equal(closure, program_relation(model, program))


# --------------------------------------------------------------------------
# Registry


def test_property_names_and_dispatch():
    assert set(PROPERTY_NAMES) == {
        "nashHere",
        "gameIsNash",
        "weakDominance",
        "pluralityRule",
        "resolute",
        "strategyProof",
        "nonImposed",
        "dictator",
        "knowingDictator",
        "titForTat",
    }
    with pytest.raises(Exception):
        build_property("noSuch", PD_SIG)
    with pytest.raises(Exception):
        build_property("dictator", PD_SIG)  # player missing
    with pytest.raises(Exception):
        build_property("nashHere", PD_SIG, player=1)  # stray param


def test_voting_properties_need_alternatives():
    with pytest.raises(Exception):
        build_property("pluralityRule", PD_SIG)


def test_strategy_proof_inner_is_the_boxed_body():
    sig = Signature.from_game(vote3_game())
    outer = build_property("strategyProof", sig)
    assert isinstance(outer, Box)
    assert outer.body == strategy_proof_inner(sig)


# --------------------------------------------------------------------------
# Shared subformulas, against the compositional builders


def _assert_shared(root) -> None:
    nodes = node_objects(root)
    # A dict keys nodes by structural equality: two equal objects share a key.
    assert len(dict.fromkeys(nodes)) == len(nodes)


def _same_build(build, oracle) -> None:
    """The two thunks give equal, identically rendered trees (or lists of
    vectors), the first with no two distinct nodes equal; or both raise the
    same GameError."""
    try:
        want = oracle()
    except GameError as exc:
        with pytest.raises(GameError) as got:
            build()
        assert str(got.value) == str(exc)
        return
    got = build()
    assert got == want
    for node, twin in zip(*((x if isinstance(x, list) else [x]) for x in (got, want))):
        assert render(node) == render(twin)
        _assert_shared(node)


_STRATEGY_POOL = ("a", "b", "c", "d")


@st.composite
def _signatures(draw) -> Signature:
    """2–4 players with 1–4 strategies each (names overlap across players),
    1–8 exact values including fractions, with or without alternatives."""
    strategy_sets = tuple(
        tuple(draw(st.lists(st.sampled_from(_STRATEGY_POOL), min_size=1, max_size=4, unique=True)))
        for _ in range(draw(st.integers(2, 4)))
    )
    values = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    alternatives = draw(
        st.none()
        | st.lists(st.sampled_from(_STRATEGY_POOL), min_size=1, max_size=4, unique=True).map(tuple)
    )
    return Signature(strategy_sets, tuple(sorted(values)), alternatives)


@given(_signatures())
@settings(max_examples=60, deadline=None)
def test_builders_match_the_compositional_oracle_with_shared_nodes(sig):
    moves = [(i, a) for i in sig.players for a in sig.strategies(i)]
    params = {(): [()], ("player",): [(i,) for i in sig.players], ("player", "strategy"): moves}
    for name in PROPERTY_NAMES:
        oracle, wanted = property_oracle.PROPERTIES[name]
        for args in params[wanted]:
            _same_build(
                lambda: build_property(name, sig, **dict(zip(wanted, args))),
                lambda: oracle(sig, *args),
            )

    def same_helper(helper: str, *args) -> None:
        # The abbreviations that no property uses live in `builders`.
        source = properties if hasattr(properties, helper) else builders
        _same_build(
            lambda: getattr(source, helper)(sig, *args),
            lambda: getattr(property_oracle, helper)(sig, *args),
        )

    for i in sig.players:
        for helper in ("box_switch", "diamond_switch", "box_any"):
            same_helper(helper, i, UtilEq(i, sig.util_range[0]))
        for v in sig.util_range:
            same_helper("payoff_geq", i, v)
            same_helper("payoff_gt", i, v)
    for i, a in moves:
        same_helper("vec_switch", i, a)
        same_helper("vec_any", i, a)
    for x in sig.alternatives or ():
        same_helper("plurality_winner_vectors", x)


def test_shared_node_counts_on_a_three_by_three_by_three_signature():
    sig = Signature((("a", "b", "c"),) * 3, (0, 1, 2, 3))
    weak = [(i, a) for i in sig.players for a in sig.strategies(i)]

    def objects(formulas):
        return sum(len(node_objects(f)) for f in formulas)

    assert objects(property_oracle.weak_dominance(sig, *args) for args in weak) == 1305
    assert objects(properties.weak_dominance(sig, *args) for args in weak) == 396
    assert objects([property_oracle.nash_here(sig)]) == 281
    assert objects([properties.nash_here(sig)]) == 147
