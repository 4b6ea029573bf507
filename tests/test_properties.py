"""The named game-property formulas and abbreviation expansions."""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

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
    GameForm,
    MaslModel,
    Not,
    Or,
    OutcomeRecord,
    Signature,
    UtilEq,
    Vector,
    VectorAtom,
    all_profiles,
    build_property,
    render,
    epistemic_lift,
    extension,
    valid_in_model,
    satisfies,
)
from stratlogic.properties import (
    knowledge,
    nash_here,
    payoff_geq,
    payoff_gt,
    strategy_proof_inner,
    tit_for_tat,
)
from stratlogic import models
from stratlogic.models import EvalError, compile_plan, confusion_model, restrict
from stratlogic.syntax import BOT, Agent, AgentConv, Choice, Formula, Node, Seq, Star, Vec
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
from builders import expand, from_outcomes, node_objects
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
    assert set(property_oracle.PROPERTIES) == {
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
    # two players (for titForTat) and winner data (for the voting properties)
    sig = Signature((("a", "b"),) * 2, PD_SIG.util_range, ("a", "b"))
    args = {"player": 1, "strategy": "a"}
    for name, (_, wanted) in property_oracle.PROPERTIES.items():
        build_property(name, sig, **{key: args[key] for key in wanted})
    with pytest.raises(GameError, match="unknown property 'noSuch'"):
        build_property("noSuch", PD_SIG)
    with pytest.raises(Exception):
        build_property("dictator", PD_SIG)  # player missing
    with pytest.raises(Exception):
        build_property("nashHere", PD_SIG, player=1)  # stray param


def test_bad_property_requests_raise_before_the_memo():
    """Names and parameters are checked first, so even a request the memo
    could not hash is a GameError."""
    for name, params in (
        ("noSuch", {}),
        ("dictator", {}),
        ("nashHere", {"player": [1]}),
        ("weakDominance", {"player": 1, "strategy": "d", "extra": {}}),
    ):
        with pytest.raises(GameError):
            build_property(name, PD_SIG, **params)


def test_properties_are_memoised_by_value():
    sig = Signature.from_game(vote3_game())
    twin = Signature(tuple(map(tuple, sig.strategy_sets)), tuple(sig.util_range), sig.alternatives)
    assert twin == sig and twin is not sig
    assert build_property("nashHere", sig) is build_property("nashHere", twin)
    one = build_property("dictator", sig, player=1)
    assert build_property("dictator", twin, player=1) is one
    assert build_property("dictator", sig, player=2) is not one


def test_the_property_memo_is_bounded():
    bound = properties._built.cache_info().maxsize
    for k in range(bound + 3):
        build_property("nashHere", Signature((("c", "d"),) * 2, (k, k + 1)))
    assert properties._built.cache_info().currsize <= bound


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
    for name, (oracle, wanted) in property_oracle.QUANTIFIED.items():
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
    built = [properties.weak_dominance(sig, *args) for args in weak]
    # One box over the all-`??` program per build, not one per other
    # strategy: 369 objects when each build boxed per commitment.
    assert objects(built) == 234
    # Across the nine builds the terms, programs and levels are one set of
    # objects: 154 distinct nodes in all (269 with per-commitment boxes).
    assert len({id(node) for f in built for node in node_objects(f)}) == 154
    assert objects([property_oracle.nash_here(sig)]) == 281
    # One box over `(…!!, ??, !!…)` per player and level: 138 with a box
    # per strategy.
    assert objects([properties.nash_here(sig)]) == 76


# --------------------------------------------------------------------------
# The per-signature node table


def test_weak_dominance_builds_of_one_player_share_vectors_and_levels():
    sig = Signature((("a", "b", "c"),) * 3, (0, 1, 2, 3))
    first, second = (properties.weak_dominance(sig, 2, name) for name in ("a", "b"))

    def objects(f, kind=object):
        return {id(node) for node in node_objects(f) if isinstance(node, kind)}

    # Dominance by a and by b both box over the one all-`??` program, and
    # each reaches its own switch: the two share that program, and no switch.
    everyone = properties._everyone(sig)
    assert everyone.vector == Vector([ADV, ADV, ADV])
    assert objects(first, Vec) & objects(second, Vec) == {id(everyone)}
    assert properties._moves(sig, 2, CUR)[0].vector == Vector([CUR, Concrete("a"), CUR])
    assert objects(first, Vec) == {id(everyone), id(properties._moves(sig, 2, CUR)[0])}
    levels = {id(geq) for _, geq, _ in properties._levels(sig, 2)}
    assert len(levels) == 4
    assert levels <= objects(first) & objects(second)


def _params(sig: Signature) -> dict[tuple, list[tuple]]:
    """Every argument tuple of each parameter list of the property table."""
    return {
        (): [()],
        ("player",): [(i,) for i in sig.players],
        ("player", "strategy"): [(i, a) for i in sig.players for a in sig.strategies(i)],
    }


def _build_all(sig: Signature) -> list:
    """Every property of `sig` with every argument, each built afresh."""
    return [
        build(sig, *args)
        for build, wanted in properties._PROPERTIES.values()
        for args in _params(sig)[wanted]
    ]


def _two_voter_game():
    """Two voters over a, b and c, the first one's vote winning: a game
    that every property accepts."""
    form = GameForm([("a", "b", "c")] * 2)
    rng = random.Random(5)
    return from_outcomes(
        form,
        {
            s: OutcomeRecord(
                form.profile_key(s),
                [rng.randint(0, 2), rng.randint(0, 2)],
                [form.profile_key(s).split(",")[0]],
            )
            for s in all_profiles(form)
        },
    )


def test_the_node_table_holds_terms_the_all_adversary_program_and_four_entries_per_player():
    """Per player: the switches, the commitments, the deviation program and
    the levels (before properties quantified with `??`, three entries and no
    all-`??` program)."""
    sig = Signature.from_game(_two_voter_game())
    _build_all(sig)
    table = sig._nodes
    assert len(table) == 2 + 4 * sig.n
    assert sum(isinstance(entry, dict) for entry in table.values()) == 1
    assert table["everyone"] is properties._everyone(sig)
    assert {table[i, "deviations"].vector for i in sig.players} == {
        Vector([ADV, CUR]),
        Vector([CUR, ADV]),
    }
    with pytest.raises(GameError):
        properties.dictator(sig, 9)
    assert len(table) == 2 + 4 * sig.n
    # The table is no part of the signature's value.
    assert sig == Signature.from_game(_two_voter_game())
    assert "_nodes" not in repr(sig)


def test_weak_dominance_checks_compare_no_nodes(monkeypatch):
    """Every `weakDominance` of a 3x3x3 game checked on one model: each
    vector is one object across the builds, so neither the model's step
    table nor the compiled-vector cache compares two equal vectors node by
    node.  With a vector per build, this made 96 calls."""
    form = GameForm([("a", "b", "c")] * 3)
    rng = random.Random(3)
    game = from_outcomes(
        form,
        {
            s: OutcomeRecord(form.profile_key(s), [rng.randint(0, 3) for _ in range(3)])
            for s in all_profiles(form)
        },
    )
    model = MaslModel(game)
    sig = models.model_signature(model)
    properties._built.cache_clear()
    models._compile_vector.cache_clear()
    calls = []
    equal = Node.__eq__

    def counted(self, other):
        calls.append(self)
        return equal(self, other)

    monkeypatch.setattr(Node, "__eq__", counted)
    for i in sig.players:
        for a in sig.strategies(i):
            extension(model, build_property("weakDominance", sig, player=i, strategy=a))
    assert calls == []


def test_the_node_table_keeps_no_signature_alive():
    """Reference counting alone frees a signature that every property was
    built and checked under: no module-level cache holds it."""
    game = _two_voter_game()
    lift = epistemic_lift(game)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sig = Signature.from_game(game)
        ref = weakref.ref(sig)
        for f in _build_all(sig):
            if isinstance(f, Formula):
                extension(lift, f)
        build_property("weakDominance", sig, player=1, strategy="a")
        properties._built.cache_clear()
        del sig, f
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


_LEVELLED = ("nashHere", "gameIsNash", "weakDominance", "strategyProof", "dictator", "knowingDictator")


@st.composite
def _level_games(draw):
    """2–3 players with 1–3 strategies each, and utilities drawn from 1–12
    exact values, fractions included."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    values = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    form = GameForm(tuple("abc"[:k]) for k in sizes)
    profiles = all_profiles(form)
    picks = draw(
        st.lists(
            st.sampled_from(values),
            min_size=len(profiles) * form.n,
            max_size=len(profiles) * form.n,
        )
    )
    return from_outcomes(
        form,
        {
            s: OutcomeRecord(form.profile_key(s), picks[k * form.n : (k + 1) * form.n])
            for k, s in enumerate(profiles)
        },
    )


@given(_level_games(), st.data())
@settings(max_examples=25, deadline=None)
def test_chained_levels_agree_with_the_old_trees_on_models_and_lifts(game, data):
    """Each builder over payoff levels has the extension of the old trees,
    whose levels are fresh ascending disjunctions and whose quantifiers over
    a player's strategies are one modality per strategy: on the game, on its
    epistemic lift, and on a confusion model that restricts one player to a
    drawn subset of strategies and confuses a drawn set of players (in the
    restricted form `??` offers fewer strategies than the ambient ones).
    Its plan grows with players x values, not with the strategy counts or
    with the square of the values."""
    sig = Signature.from_game(game)
    params = _params(sig)
    player = data.draw(st.sampled_from(sig.players))
    kept = data.draw(
        st.lists(st.sampled_from(sig.strategies(player)), min_size=1, unique=True)
    )
    confused = data.draw(st.lists(st.sampled_from(sig.players), unique=True))
    kripke = (
        MaslModel(game),
        epistemic_lift(game),
        confusion_model(game, restrict(game.form, {player: kept}), confused),
    )

    def verdict(model, f):
        # A game has no agents, so `knowingDictator` fails there, alike.
        try:
            return extension(model, f).tolist()
        except EvalError as exc:
            return str(exc)

    for name in _LEVELLED:
        old, wanted = property_oracle.PROPERTIES[name]
        for args in params[wanted]:
            f = build_property(name, sig, **dict(zip(wanted, args)))
            assert len(compile_plan([f]).nodes) <= 6 * sig.n * len(sig.util_range) + 8
            for model in kripke:
                assert verdict(model, f) == verdict(model, old(sig, *args))
