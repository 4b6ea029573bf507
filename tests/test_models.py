"""Predecessor semantics against the dense oracle, the model checker, and the
epistemic constructions."""

from __future__ import annotations

import random
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stratlogic import (
    ADV,
    GameError,
    CUR,
    And,
    Box,
    Concrete,
    Diamond,
    EvalError,
    GameForm,
    IntensionalModel,
    Label,
    MaslModel,
    Not,
    Or,
    OutcomeRecord,
    Outcomes,
    Signature,
    Top,
    UtilEq,
    Vector,
    VectorAtom,
    Winner,
    all_profiles,
    counterexample,
    epistemic_lift,
    extension,
    model_signature,
    restrict,
    satisfies,
    valid_in_model,
)
from stratlogic import models
from stratlogic.models import confusion_model, pre
from stratlogic.syntax import (
    Agent,
    AgentConv,
    Choice,
    Formula,
    Seq,
    Star,
    Test as ProgTest,
    Vec,
)
from stratlogic.jsonio import intensional_from_dict, intensional_to_dict
from stratlogic.properties import build_property, knowledge
from stratlogic.catalog import (
    commitment_confusion,
    prisoners_dilemma,
    vote3_game,
)

from builders import choice, from_outcomes, node_objects, seq
from game_oracle import nash_set, util
from dense_oracle import (
    compose,
    dense_extension,
    interpret_term,
    program_relation,
    relation_via_pre,
    rtc,
    vector_relation,
)
from gens import (
    random_eval_formula,
    random_eval_program,
    random_formula,
    random_game,
    random_program,
    random_vector,
)

PD_GAME = prisoners_dilemma()
PD_SIG = Signature.from_game(PD_GAME)


def pd_model() -> MaslModel:
    return MaslModel(PD_GAME)


# --------------------------------------------------------------------------
# Term denotations


def test_interpret_term_clauses():
    strategies = ("a", "b", "c")
    assert interpret_term(Concrete("b"), strategies, "a") == frozenset({"b"})
    assert interpret_term(ADV, strategies, "a") == frozenset(strategies)
    assert interpret_term(CUR, strategies, "b") == frozenset({"b"})
    # a Concrete name outside the (restricted) strategy set denotes nothing
    assert interpret_term(Concrete("d"), ("c",), "c") == frozenset()


# --------------------------------------------------------------------------
# Relation algebra helpers


def test_compose_is_boolean_matrix_product():
    a = np.array([[1, 0], [1, 1]], dtype=bool)
    b = np.array([[0, 1], [1, 0]], dtype=bool)
    got = compose(a, b)
    want = np.zeros((2, 2), dtype=bool)
    for i, k, j in product(range(2), repeat=3):
        if a[i, k] and b[k, j]:
            want[i, j] = True
    assert np.array_equal(got, want)


def _rtc_by_powers(rel: np.ndarray) -> np.ndarray:
    out = np.eye(rel.shape[0], dtype=bool)
    power = np.eye(rel.shape[0], dtype=bool)
    for _ in range(rel.shape[0]):
        power = compose(power, rel)
        out |= power
    return out


@given(arrays(bool, (6, 6)))
@settings(max_examples=80, deadline=None)
def test_rtc_matches_union_of_powers(rel):
    closure = rtc(rel)
    assert np.array_equal(closure, _rtc_by_powers(rel))
    # idempotent, reflexive, contains the base relation
    assert np.array_equal(rtc(closure), closure)
    assert closure.diagonal().all()
    assert (closure | rel == closure).all()


# --------------------------------------------------------------------------
# Vector relations: the target-profile membership law


def test_vector_relation_membership_law():
    rng = random.Random(99)
    for _ in range(25):
        game = random_game(rng)
        model = MaslModel(game)
        sig = Signature.from_game(game)
        states = all_profiles(game.form)
        for _ in range(6):
            vec = random_vector(rng, sig)
            rel = relation_via_pre(model, Vec(vec))
            assert np.array_equal(rel, program_relation(model, Vec(vec)))
            for si, s in enumerate(states):
                for ti, t in enumerate(states):
                    expected = all(
                        game.form.strategy_sets[pos][t[pos]]
                        in interpret_term(
                            term,
                            game.form.strategy_sets[pos],
                            game.form.strategy_sets[pos][s[pos]],
                        )
                        for pos, term in enumerate(vec.terms)
                    )
                    assert rel[si, ti] == expected


def test_vector_relation_hand_case():
    model = pd_model()
    # (c,??): target must have player 1 on c; source is irrelevant
    rel = relation_via_pre(model, Vec(Vector([Concrete("c"), ADV])))
    want = np.zeros((4, 4), dtype=bool)
    want[:, model.index("c,c")] = True
    want[:, model.index("c,d")] = True
    assert np.array_equal(rel, want)
    # (!!,d): player 1 keeps the current strategy, player 2 moves to d
    rel = relation_via_pre(model, Vec(Vector([CUR, Concrete("d")])))
    for s in range(4):
        for t in range(4):
            s_key, t_key = model.state_key(s), model.state_key(t)
            expected = t_key.split(",")[0] == s_key.split(",")[0] and t_key.endswith(
                "d"
            )
            assert rel[s, t] == expected


def test_foreign_concrete_name_denotes_empty_relation():
    model = pd_model()
    rel = relation_via_pre(model, Vec(Vector([Concrete("z"), ADV])))
    assert not rel.any()


def test_determined_vectors_are_functional():
    rng = random.Random(5)
    for _ in range(15):
        game = random_game(rng, size_range=(1, 3))
        model = MaslModel(game)
        sig = Signature.from_game(game)
        for _ in range(8):
            vec = random_vector(rng, sig)
            if not vec.determined():
                continue
            rel = relation_via_pre(model, Vec(vec))
            counts = rel.sum(axis=1)
            # every Concrete name here exists, so exactly one successor
            if all(
                t is CUR or t.name in game.form.strategy_sets[i]
                for i, t in enumerate(vec.terms)
                if t is not ADV
            ):
                assert (counts == 1).all()


# --------------------------------------------------------------------------
# Program connectives


def test_seq_choice_star_test_semantics():
    model = pd_model()
    u = Vec(Vector([Concrete("c"), ADV]))
    v = Vec(Vector([ADV, Concrete("d")]))
    ru = relation_via_pre(model, u)
    rv = relation_via_pre(model, v)
    assert np.array_equal(relation_via_pre(model, Seq(u, v)), compose(ru, rv))
    assert np.array_equal(relation_via_pre(model, Choice(u, v)), ru | rv)
    assert np.array_equal(relation_via_pre(model, Star(u)), rtc(ru))
    guard = ProgTest(UtilEq(1, 0))
    rel = relation_via_pre(model, guard)
    mask = extension(model, UtilEq(1, 0))
    assert np.array_equal(rel, np.diag(mask))


def test_agent_programs_require_intensional_model():
    with pytest.raises(EvalError):
        pre(pd_model(), Agent(1), np.ones(4, dtype=bool))
    with pytest.raises(EvalError):
        extension(pd_model(), Diamond(Agent(1), Top()))


# --------------------------------------------------------------------------
# Formula semantics


def test_atom_masks():
    model = pd_model()
    ext = extension(model, UtilEq(1, 3))
    assert [model.state_key(i) for i in np.flatnonzero(ext)] == ["d,c"]
    ext = extension(model, Label("cd"))
    assert [model.state_key(i) for i in np.flatnonzero(ext)] == ["c,d"]
    ext = extension(model, Top())
    assert ext.all()


def test_vector_atom_checks_concrete_positions_only():
    model = pd_model()
    ext = extension(model, VectorAtom(Vector([Concrete("c"), ADV])))
    keys = {model.state_key(i) for i in np.flatnonzero(ext)}
    assert keys == {"c,c", "c,d"}
    assert extension(model, VectorAtom(Vector([CUR, ADV]))).all()


def test_eval_errors():
    model = pd_model()
    with pytest.raises(EvalError):
        extension(model, Winner("a"))  # no winner data in PD
    with pytest.raises(EvalError):
        extension(model, UtilEq(1, 7))  # 7 outside U
    with pytest.raises(EvalError):
        extension(model, UtilEq(9, 0))  # no player 9


def test_box_diamond_duality():
    rng = random.Random(17)
    game = vote3_game()
    model = MaslModel(game)
    for _ in range(40):
        f = random_eval_formula(rng, game, 3)
        p = random_eval_program(rng, game, 3)
        box = extension(model, Box(p, f))
        dia = extension(model, Diamond(p, Not(f)))
        assert np.array_equal(box, ~dia)


def test_connective_semantics_pointwise():
    model = pd_model()
    f, g = UtilEq(1, 0), Label("d,c")
    ef, eg = extension(model, f), extension(model, g)
    assert np.array_equal(extension(model, Not(f)), ~ef)
    assert np.array_equal(extension(model, And(f, g)), ef & eg)
    assert np.array_equal(extension(model, Or(f, g)), ef | eg)


def test_satisfies_and_extension_agree():
    game = vote3_game()
    model = MaslModel(game)
    rng = random.Random(23)
    for _ in range(20):
        f = random_eval_formula(rng, game, 3)
        ext = extension(model, f)
        for i in range(model.size):
            assert satisfies(model, i, f) == bool(ext[i])
            assert satisfies(model, model.state_key(i), f) == bool(ext[i])


def test_counterexample_reports_first_falsifying_state():
    model = pd_model()
    assert counterexample(model, Top()) is None
    # u1=0 holds only at (c,d); first failure is the first state (c,c)
    assert counterexample(model, UtilEq(1, 0)) == "c,c"
    assert valid_in_model(model, Or(UtilEq(1, 0), Not(UtilEq(1, 0))))


def test_extensions_are_cached_and_frozen():
    model = pd_model()
    f = And(UtilEq(1, 0), Top())
    a = extension(model, f)
    b = extension(model, f)
    assert a is b
    assert not a.flags.writeable
    star = Diamond(Star(Vec(Vector([Concrete("c"), ADV]))), UtilEq(1, 0))
    reach = extension(model, star)
    assert extension(model, star) is reach
    assert not reach.flags.writeable


def test_state_index_forms():
    model = pd_model()
    assert model.index("d,c") == model.index((1, 0)) == model.index(2)
    with pytest.raises(GameError):
        model.index("z,z")


# --------------------------------------------------------------------------
# model_signature


def test_model_signature_flat():
    sig = model_signature(pd_model())
    assert sig == PD_SIG


def test_model_signature_intensional():
    model, _ = commitment_confusion()
    sig = model_signature(model)
    assert sig.strategy_sets == (("c", "d"), ("c", "d"))
    assert sig.alternatives is None


# --------------------------------------------------------------------------
# Epistemic lift


def test_lift_worlds_mirror_game_states():
    game = vote3_game()
    lift = epistemic_lift(game)
    assert lift.size == 27
    model = MaslModel(game)
    for i in range(27):
        assert lift.state_key(i) == "G:" + model.state_key(i)
    # valuation carried over unchanged
    f = UtilEq(1, 2)
    assert np.array_equal(extension(lift, f), extension(model, f))


def test_lift_relations_are_own_coordinate_equivalences():
    game = prisoners_dilemma()
    lift = epistemic_lift(game)
    states = all_profiles(game.form)
    for player in game.form.players:
        rel = relation_via_pre(lift, Agent(player))
        for i, s in enumerate(states):
            for j, t in enumerate(states):
                assert rel[i, j] == (s[player - 1] == t[player - 1])
        # an equivalence: reflexive, symmetric, transitive
        assert rel.diagonal().all()
        assert np.array_equal(rel, rel.T)
        assert np.array_equal(compose(rel, rel), rel)
        # so knowledge(i) = ((ag_i + ag_i^)*) coincides with R_i
        know = relation_via_pre(lift, knowledge(player))
        assert np.array_equal(know, rel)


def test_lift_common_knowledge_is_total():
    lift = epistemic_lift(prisoners_dilemma())
    rel = relation_via_pre(lift, Star(Choice(Agent(1), Agent(2))))
    assert rel.all()


def test_converse_swaps_axes():
    lift = epistemic_lift(prisoners_dilemma())
    fwd = relation_via_pre(lift, Agent(1))
    bwd = relation_via_pre(lift, AgentConv(1))
    assert np.array_equal(bwd, fwd.T)


# --------------------------------------------------------------------------
# Restriction


def test_restrict_preserves_ambient_order():
    form = GameForm([("a", "b", "c"), ("x", "y")])
    sub = restrict(form, {1: ["c", "a"]})
    assert sub.strategy_sets == (("a", "c"), ("x", "y"))


def test_restrict_rejects_unknown_names():
    form = GameForm([("a", "b"), ("x", "y")])
    with pytest.raises(Exception):
        restrict(form, {1: ["z"]})


# --------------------------------------------------------------------------
# Confusion model


def test_confusion_model_worlds_and_actual():
    model, actual = commitment_confusion()
    keys = [model.state_key(i) for i in range(model.size)]
    assert keys == ["Gr:c,c", "Gr:c,d", "G:c,c", "G:c,d", "G:d,c", "G:d,d"]
    assert actual == "Gr:c,d"
    assert model.index(actual) == 1


def test_confusion_model_valuation_inherited():
    model, _ = commitment_confusion()
    game = prisoners_dilemma()
    flat = MaslModel(game)
    for i in range(model.size):
        _, key = model.state_key(i).split(":")
        for player in (1, 2):
            value = util(game, game.form.profile_from_key(key), player)
            assert satisfies(model, i, UtilEq(player, value))


def test_confused_player_crosses_forms_informed_player_does_not():
    model, _ = commitment_confusion()
    r2 = relation_via_pre(model, Agent(2))
    r1 = relation_via_pre(model, Agent(1))
    # player 2 cannot tell Gr:c,d from G:d,d (same own coordinate d)
    assert r2[model.index("Gr:c,d"), model.index("G:d,d")]
    assert r2[model.index("Gr:c,c"), model.index("G:d,c")]
    # player 1 knows which form is being played
    gr = [i for i in range(model.size) if model.state_key(i).startswith("Gr:")]
    g = [i for i in range(model.size) if model.state_key(i).startswith("G:")]
    for i in gr:
        for j in g:
            assert not r1[i, j] and not r1[j, i]


def test_vector_relations_never_cross_forms():
    model, _ = commitment_confusion()
    rel = relation_via_pre(model, Vec(Vector([ADV, ADV])))
    gr = [i for i in range(model.size) if model.state_key(i).startswith("Gr:")]
    g = [i for i in range(model.size) if model.state_key(i).startswith("G:")]
    for i in gr:
        for j in g:
            assert not rel[i, j] and not rel[j, i]
    # within the restricted form the adversary vector is total
    for i in gr:
        for j in gr:
            assert rel[i, j]


def test_confusion_restricted_form_limits_vectors():
    model, _ = commitment_confusion()
    # player 1 is committed to c in Gr: the (d,!!) vector has no successors there
    rel = relation_via_pre(model, Vec(Vector([Concrete("d"), CUR])))
    assert not rel[model.index("Gr:c,c")].any()
    assert rel[model.index("G:c,c"), model.index("G:d,c")]


def test_intensional_model_validation():
    game = prisoners_dilemma()
    form = game.form
    with pytest.raises(GameError):
        # world referencing a missing form index
        IntensionalModel(form, [("G", form)], [(1, (0, 0))], _table([game.outcome((0, 0))]))


def _table(records, n: int = 2) -> Outcomes:
    return Outcomes.from_records(records, n)


def _pd_parts():
    game = prisoners_dilemma()
    states = all_profiles(game.form)
    return game.form, [(0, s) for s in states], [game.outcome(s) for s in states]


def _restricted_pd():
    form = prisoners_dilemma().form
    return restrict(form, {1: ["c"]})


# Each case: (forms, worlds, records) changed from a valid one-form PD model.
_MALFORMED = {
    "form not an order-preserving restriction": (
        lambda f, w, r: ([("G", GameForm([("d", "c"), ("c", "d")]))], w, r),
        "order-preserving restriction",
    ),
    "duplicate form ids": (
        lambda f, w, r: ([("G", f), ("G", f)], w, r),
        "distinct",
    ),
    "player-count mismatch": (
        lambda f, w, r: ([("G", GameForm([("c", "d")] * 3))], w, r),
        "player count",
    ),
    "unknown form index": (
        lambda f, w, r: ([("G", f)], w[:3] + [(1, (1, 1))], r),
        "unknown form index 1",
    ),
    "profile out of range": (
        lambda f, w, r: ([("G", f)], w[:3] + [(0, (1, 2))], r),
        "out of range at player 2",
    ),
    "profile not available in its form": (
        lambda f, w, r: ([("Gr", _restricted_pd())], [(0, (0, 0)), (0, (1, 0))], r[:2]),
        "not available in form 'Gr'",
    ),
    "duplicate world": (
        lambda f, w, r: ([("G", f)], w[:3] + [w[1]], r),
        r"duplicate world \(0, \(0, 1\)\)",
    ),
    "no worlds": (
        lambda f, w, r: ([("G", f)], [], []),
        "at least one world",
    ),
    "wrong number of records": (
        lambda f, w, r: ([("G", f)], w, r[:3]),
        "one outcome record per world",
    ),
    "wrong utility count in a record": (
        lambda f, w, r: ([("G", f)], w, r[:3] + [OutcomeRecord("dd", [1, 1, 1])]),
        "wrong utility count",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_constructor_rejects_each_malformed_case(case):
    form, worlds, records = _pd_parts()
    IntensionalModel(form, [("G", form)], worlds, _table(records))  # the valid original
    change, message = _MALFORMED[case]
    with pytest.raises(GameError, match=message):
        forms, worlds, records = change(form, worlds, records)
        IntensionalModel(form, forms, worlds, _table(records))


def test_world_rows_get_the_same_checks():
    form, worlds, records = _pd_parts()
    rows = np.array([(f, *s) for f, s in worlds])
    records = _table(records)
    model = IntensionalModel(form, [("G", form)], rows, records)
    assert model.worlds == worlds
    for bad, message in [
        ((1, 1, 1), "unknown form index"),
        ((0, 1, 2), "out of range"),
        ((0, 0, 1), "duplicate world"),
    ]:
        with pytest.raises(GameError, match=message):
            IntensionalModel(form, [("G", form)], np.vstack([rows[:3], bad]), records)
    with pytest.raises(GameError):
        IntensionalModel(form, [("G", form)], rows[:, :2], records)


def test_a_game_model_is_the_one_form_agent_free_model():
    game = prisoners_dilemma()
    model = MaslModel(game)
    assert type(model) is type(epistemic_lift(game)) is IntensionalModel
    assert model.forms == ((None, game.form),)
    assert model.states == all_profiles(game.form)
    assert model.worlds == [(0, s) for s in all_profiles(game.form)]
    with pytest.raises(EvalError):
        model.agent_edges(1)


def _keyed_models():
    game = vote3_game()
    confusion, _ = commitment_confusion()
    restricted = restrict(game.form, {1: ["a"], 3: ["b", "c"]})
    return {
        "game": MaslModel(game),
        "lift": epistemic_lift(game),
        "confusion": confusion,
        "confusion3": confusion_model(game, restricted, [2]),
        "json": intensional_from_dict(intensional_to_dict(confusion)),
    }


@pytest.mark.parametrize("kind", ["game", "lift", "confusion", "confusion3", "json"])
def test_state_keys_round_trip_through_index(kind):
    model = _keyed_models()[kind]
    keys = [model.state_key(i) for i in range(model.size)]
    assert len(set(keys)) == model.size
    for i, key in enumerate(keys):
        assert model.index(key) == i
        assert model.index(i) == i
        # a game model also takes a bare profile, the others a (form, profile) pair
        where = model.states[i] if kind == "game" else model.worlds[i]
        assert model.index(where) == i
    assert (":" in keys[0]) == (kind != "game")
    with pytest.raises(EvalError):
        model.index(model.size)


def test_missing_agent_relation_is_empty():
    game = prisoners_dilemma()
    form = game.form
    model = IntensionalModel(
        form,
        [("G", form)],
        [(0, s) for s in all_profiles(form)],
        game.outcomes,
        agent_edges={1: [(0, 0)]},
    )
    assert not relation_via_pre(model, Agent(2)).any()
    assert relation_via_pre(model, Agent(1))[0, 0]


def test_agent_edges_are_validated_arrays():
    game = prisoners_dilemma()
    form = game.form
    worlds = [(0, s) for s in all_profiles(form)]
    model = IntensionalModel(
        form, [("G", form)], worlds, game.outcomes,
        agent_edges={1: [(3, 1), (0, 2), (3, 1), (0, 0)]},
    )
    src, dst = model.agent_edges(1)
    assert list(zip(src.tolist(), dst.tolist())) == [(3, 1), (0, 2), (3, 1), (0, 0)]
    assert not src.flags.writeable and not dst.flags.writeable
    # serialised relations are sorted and free of duplicates
    assert intensional_to_dict(model)["relations"] == {
        "1": [[0, 0], [0, 2], [3, 1]],
        "2": [],
    }
    for bad in [(0, 4), (-1, 0)]:
        with pytest.raises(GameError, match=rf"edge \({bad[0]}, {bad[1]}\) out of range"):
            IntensionalModel(
                form, [("G", form)], worlds, game.outcomes, agent_edges={1: [bad]}
            )
    with pytest.raises(GameError):
        IntensionalModel(
            form, [("G", form)], worlds, game.outcomes, agent_edges={1: [(0, 10**30)]}
        )
    with pytest.raises(EvalError):
        model.agent_edges(3)


def test_confusion_edges_match_pairwise_definition():
    game = vote3_game()
    restricted = restrict(game.form, {1: ["a"], 3: ["b", "c"]})
    model = confusion_model(game, restricted, [2])
    for player in game.form.players:
        pos = player - 1
        want = [
            (i, j)
            for i, (fi, s) in enumerate(model.worlds)
            for j, (fj, t) in enumerate(model.worlds)
            if s[pos] == t[pos] and (player == 2 or fi == fj)
        ]
        src, dst = model.agent_edges(player)
        assert list(zip(src.tolist(), dst.tolist())) == want


# --------------------------------------------------------------------------
# Predecessors against the dense oracle on random programs


def _random_model(kind: str, rng: random.Random):
    """A random model with at most 216 states: a flat model, an epistemic
    lift, a confusion model, ("forms") two to four full copies of one form
    with their own utilities, or ("sparse") a shuffled subset of a game's
    profiles; the last two with random, asymmetric agent relations."""
    if kind == "confusion":
        game = random_game(rng, size_range=(2, 4))
        subsets = {
            player: rng.sample(names, rng.randint(1, len(names)))
            for player, names in zip(game.form.players, game.form.strategy_sets)
            if rng.random() < 0.5
        }
        confused = [p for p in game.form.players if rng.random() < 0.5]
        return confusion_model(game, restrict(game.form, subsets), confused)
    if kind == "forms":
        game = random_game(rng, size_range=(1, 3))
        copies = rng.randint(2, 4)
        records = [
            OutcomeRecord(rec.label, [rng.randint(0, 3) for _ in rec.utils])
            for _ in range(copies)
            for rec in map(game.outcome, all_profiles(game.form))
        ]
        return IntensionalModel(
            game.form,
            [(f"G{k}", game.form) for k in range(copies)],
            [(k, s) for k in range(copies) for s in all_profiles(game.form)],
            Outcomes.from_records(records, game.form.n),
            _random_edges(rng, game.form.players, len(records)),
        )
    game = random_game(rng, size_range=(2, 6))
    if kind == "flat":
        return MaslModel(game)
    if kind == "lift":
        return epistemic_lift(game)
    profiles = all_profiles(game.form)
    kept = rng.sample(profiles, rng.randint(1, len(profiles)))
    return IntensionalModel(
        game.form,
        [("G", game.form)],
        [(0, s) for s in kept],
        Outcomes.from_records([game.outcome(s) for s in kept], game.form.n),
        _random_edges(rng, game.form.players, len(kept)),
    )


def _random_edges(rng: random.Random, players, m: int) -> dict:
    return {
        player: [(rng.randrange(m), rng.randrange(m)) for _ in range(2 * m)]
        for player in players
        if rng.random() < 0.8
    }


@given(
    st.sampled_from(("flat", "lift", "confusion", "forms", "sparse")),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_pre_matches_dense_oracle_on_random_programs(kind, seed):
    rng = random.Random(seed)
    model = _random_model(kind, rng)
    assert model.size <= 216
    pools = dict(
        values=model_signature(model).util_range,
        labels=tuple(sorted(model.outcomes.labels)),
        agents=kind != "flat",
    )
    sig = model_signature(model)
    program = random_program(rng, sig, 4, **pools)
    rel = program_relation(model, program)
    targets = [
        np.array([rng.random() < 0.3 for _ in range(model.size)]),
        np.zeros(model.size, dtype=bool),
        np.arange(model.size) == rng.randrange(model.size),
    ]
    for target in targets:
        assert np.array_equal(pre(model, program, target), compose(rel, target))
    formula = random_formula(rng, sig, 3, **pools)
    assert np.array_equal(extension(model, formula), dense_extension(model, formula))


# --------------------------------------------------------------------------
# Memory stays linear in the number of profiles


def test_nash_and_star_memory_is_linear_at_7776_profiles():
    rng = random.Random(41)
    form = GameForm([("a", "b", "c", "d", "e", "f")] * 5)
    game = from_outcomes(
        form,
        {
            s: OutcomeRecord(form.profile_key(s), [rng.randint(0, 3) for _ in range(5)])
            for s in all_profiles(form)
        },
    )
    star = Star(
        Choice(Vec(Vector([ADV, CUR, CUR, CUR, CUR])), Vec(Vector([CUR, ADV, CUR, CUR, CUR])))
    )
    tracemalloc.start()
    try:
        model = MaslModel(game)
        nash = extension(model, build_property("nashHere", model_signature(model)))
        reach = extension(model, Diamond(star, UtilEq(1, 0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense 7776 x 7776 relation alone would take 60 MB
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert {model.states[int(i)] for i in np.flatnonzero(nash)} == nash_set(game)
    # players 1 and 2 may move freely, everyone else stays put
    grid = extension(model, UtilEq(1, 0)).reshape([6] * 5)
    want = np.broadcast_to(grid.any(axis=(0, 1), keepdims=True), grid.shape)
    assert np.array_equal(reach, want.reshape(-1))


@pytest.mark.parametrize("values", [10, 25, 55])
def test_nash_here_evaluates_each_distinct_subformula_once(values, monkeypatch):
    """The |U| ladder, counted rather than timed: on 27 profiles the
    extension of `nashHere` computes one mask per distinct subformula, and
    each distinct subformula is one object, so every cache hit is by
    identity."""
    form = GameForm([("a", "b", "c")] * 3)
    cells = iter(range(81))
    game = from_outcomes(
        form,
        {
            s: OutcomeRecord(
                form.profile_key(s), [Fraction(next(cells) * 7 % values, 2) for _ in range(3)]
            )
            for s in all_profiles(form)
        },
    )
    model = MaslModel(game)
    assert len(model_signature(model).util_range) == values
    formula = build_property("nashHere", model_signature(model))
    subformulas = [node for node in node_objects(formula) if isinstance(node, Formula)]
    assert len(dict.fromkeys(subformulas)) == len(subformulas)
    computed = []
    connective = models._connective

    def counted(model, f, *sub):
        computed.append(f)
        return connective(model, f, *sub)

    monkeypatch.setattr(models, "_connective", counted)
    nash = extension(model, formula)
    assert len(computed) == len(subformulas)
    assert {model.states[int(i)] for i in np.flatnonzero(nash)} == nash_set(game)


# --------------------------------------------------------------------------
# Long programs need no recursion


@pytest.mark.parametrize("nesting", ["left", "right"])
@pytest.mark.parametrize("node", [Seq, Choice])
def test_ten_thousand_step_programs_at_the_default_recursion_limit(node, nesting):
    assert sys.getrecursionlimit() <= 1000
    rng = random.Random(17)
    model = MaslModel(vote3_game())
    vectors = [random_vector(rng, model_signature(model)) for _ in range(10_000)]
    steps = [Vec(v) for v in vectors]
    if nesting == "left":
        program = (seq if node is Seq else choice)(*steps)
    else:
        program = reduce(lambda right, left: node(left, right), reversed(steps))
    target = np.array([rng.random() < 0.3 for _ in range(model.size)])
    # The reach, one dense vector relation at a time.
    relations = {v: vector_relation(model, v) for v in set(vectors)}
    if node is Seq:
        want = target
        for v in reversed(vectors):
            want = compose(relations[v], want)
    else:
        want = np.zeros(model.size, dtype=bool)
        for v in vectors:
            want |= compose(relations[v], target)
    assert np.array_equal(pre(model, program, target), want)


# --------------------------------------------------------------------------
# The outcome store's atom masks


@st.composite
def _outcome_records(draw):
    """A form and one record per profile: utilities from a small pool of
    rationals (so values repeat), labels from a small pool, and winner sets
    on some, all or none of the records."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    form = GameForm(("a", "b", "c")[:k] for k in sizes)
    values = draw(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=5, unique=True)
    )
    winner_data = draw(st.sampled_from(("none", "some", "all")))
    records = []
    for _ in range(form.profile_count()):
        winners = None
        if winner_data == "all" or winner_data == "some" and draw(st.booleans()):
            winners = draw(st.sets(st.sampled_from(("x", "y", "z")), min_size=1))
        records.append(
            OutcomeRecord(
                draw(st.sampled_from(("p", "q", "a,b"))),
                [draw(st.sampled_from(values)) for _ in range(form.n)],
                winners,
            )
        )
    return form, records


@given(_outcome_records())
@settings(max_examples=80, deadline=None)
def test_outcome_store_masks_match_per_record_comparisons(case):
    form, records = case
    table = Outcomes.from_records(records, form.n)
    assert table.values == tuple(sorted({u for rec in records for u in rec.utils}))
    assert table.codes.dtype == table.label_codes.dtype == np.uint8
    assert [table.record(row) for row in range(len(records))] == records
    model = IntensionalModel(
        form, [("G", form)], [(0, s) for s in all_profiles(form)], table
    )
    for player in form.players:
        for value in table.values:
            want = [rec.utils[player - 1] == value for rec in records]
            assert extension(model, UtilEq(player, value)).tolist() == want
    for text in ("p", "q", "a,b", "absent"):
        want = [rec.label == text for rec in records]
        assert extension(model, Label(text)).tolist() == want
    if all(rec.winners is None for rec in records):
        assert table.alternatives is None and table.winners is None
        with pytest.raises(EvalError):
            extension(model, Winner("x"))
        return
    for name in ("x", "y", "z", "absent"):
        want = [rec.winners is not None and name in rec.winners for rec in records]
        assert extension(model, Winner(name)).tolist() == want
