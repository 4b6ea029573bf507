"""Predecessor semantics against the dense oracle, the model checker, and the
epistemic constructions."""

from __future__ import annotations

import copy
import dataclasses
import gc
import random
import sys
import time
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
    AxiomInstance,
    GameError,
    CUR,
    And,
    Box,
    Concrete,
    Diamond,
    EvalError,
    GameForm,
    Iff,
    Implies,
    IntensionalModel,
    Label,
    MaslModel,
    Not,
    Or,
    OutcomeRecord,
    Outcomes,
    Signature,
    StrategicGame,
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
    validity_report,
)
from stratlogic import models, parse, properties
from stratlogic.models import compile_plan, confusion_model, pre, run_plan
from stratlogic.syntax import (
    Agent,
    AgentConv,
    Choice,
    Formula,
    Node,
    Seq,
    Star,
    Test as ProgTest,
    Vec,
)
from stratlogic.jsonio import intensional_from_dict, intensional_to_dict
from stratlogic.properties import build_property, dictator, knowing_dictator, knowledge
from stratlogic.catalog import (
    commitment_confusion,
    prisoners_dilemma,
    vote3_game,
)

import fold_oracle
import plan_oracle
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


@pytest.mark.parametrize("kind", ["flat", "sparse"])
def test_pre_rejects_a_target_of_the_wrong_length(kind):
    model = _random_model(kind, random.Random(7))
    program = Vec(Vector([ADV] * model.n))
    for size in (model.size - 1, model.size + 1, model.size + 8):
        with pytest.raises(ValueError):
            pre(model, program, np.ones(size, dtype=bool))


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


def test_a_lone_atom_mask_is_its_column_never_unpacked(monkeypatch):
    cases = [
        (pd_model(), [UtilEq(1, 3), UtilEq(2, 0), Label("cd")]),
        (commitment_confusion()[0], [UtilEq(1, 2), Label("cd")]),
        (MaslModel(vote3_game()), [Winner("a"), Winner("b"), UtilEq(3, 1)]),
    ]
    monkeypatch.setattr(
        IntensionalModel, "_unpack", lambda self, bits: pytest.fail("unpacked")
    )
    for model, atoms in cases:
        for atom in atoms:
            mask = extension(model, atom)
            assert not mask.flags.writeable
            assert mask.tolist() == [satisfies(model, i, atom) for i in range(model.size)]
            assert extension(model, atom) is mask


def _atom_block_models(kind: str) -> list[IntensionalModel]:
    """Fresh models whose utility atoms fill one block or several: full
    grids, a model on a `restrict`ed form (its slots have gaps), confusion
    models, and games with more atoms than a block, one of them with
    two-byte codes."""
    rng = random.Random(31)
    if kind == "dense":
        games = [prisoners_dilemma(), vote3_game()]
        games += [random_game(rng, size_range=(1, 4)) for _ in range(6)]
        return [MaslModel(game) for game in games] + [epistemic_lift(games[-1])]
    if kind == "restricted":
        game = random_game(rng, max_players=3, size_range=(3, 4), util_range=(0, 6))
        form = game.form
        small = restrict(form, {1: form.strategy_sets[0][1:], 2: form.strategy_sets[1][::2]})
        kept = [form.profile_from_names(small.names(s)) for s in all_profiles(small)]
        table = Outcomes.from_records([game.outcome(s) for s in kept], form.n)
        model = IntensionalModel(form, [("Gr", small)], [(0, s) for s in kept], table)
        assert model._slots is not None
        return [model]
    if kind == "confusion":
        game = random_game(rng, max_players=3, size_range=(2, 4), util_range=(0, 7))
        small = restrict(game.form, {2: game.form.strategy_sets[1][:1]})
        return [commitment_confusion()[0], confusion_model(game, small, [1])]
    form = GameForm([("a", "b", "c")] * 3)
    utils = {s: OutcomeRecord(form.profile_key(s), [rng.randint(0, 8) for _ in range(3)])
             for s in all_profiles(form)}
    wide = from_outcomes(form, utils)
    codes = np.random.default_rng(31).integers(0, 300, size=(20 * 20, 2), dtype=np.uint16)
    codes[:300, 0] = np.arange(300)
    values = tuple(Fraction(v, 3) for v in range(300))
    two_byte = StrategicGame(
        GameForm([tuple(f"s{k}" for k in range(20))] * 2),
        Outcomes(values, codes, ("x",), np.zeros(400, dtype=np.uint8)),
    )
    wides = [MaslModel(wide), MaslModel(two_byte)]
    assert all(m.n * len(m.outcomes.values) > models._ATOM_BLOCK for m in wides)
    return wides


@pytest.mark.parametrize("kind", ["dense", "restricted", "confusion", "wide"])
def test_utility_atom_blocks_equal_one_packed_column_each(kind):
    for model in _atom_block_models(kind):
        table = model.outcomes
        for player in range(1, model.n + 1):
            for code, value in enumerate(table.values):
                want = model._pack(table.codes[:, player - 1] == code)
                assert model._util_set(player, code) == want, (player, value)
                assert model._leaf(UtilEq(player, value)) == want
        assert None not in model._utils and len(model._utils) == model.n * len(table.values)
        with pytest.raises(EvalError, match=f"^no player {model.n + 1} in this model$"):
            model._leaf(UtilEq(model.n + 1, table.values[0]))
        outside = max(table.values) + 1
        with pytest.raises(EvalError, match=f"^utility value {outside} is not in the model's range$"):
            model._leaf(UtilEq(1, outside))


@pytest.mark.parametrize("kind", ["dense", "restricted", "confusion", "wide"])
def test_a_utility_atom_packs_only_its_own_block(kind):
    block = models._ATOM_BLOCK
    for model in _atom_block_models(kind):
        count = len(model.outcomes.values)
        atom = model.n * count - 1  # the last atom: its block may be short
        player, code = divmod(atom, count)
        model._util_set(player + 1, code)
        first = atom - atom % block
        packed = [k for k, bits in enumerate(model._utils) if bits is not None]
        assert packed == list(range(first, min(first + block, model.n * count)))


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


@pytest.mark.parametrize("kind", ["game", "lift", "confusion3", "json"])
def test_state_key_names_a_world_without_listing_the_worlds(kind):
    # ("confusion" is left out: building the "json" model lists its worlds.)
    model = _keyed_models()[kind]
    for i in (0, model.size // 2, model.size - 1):
        assert model.index(model.state_key(i)) == i
    # `worlds` and `states` build one tuple per world; naming a few worlds of
    # a large game must not pay for all of them.
    assert "worlds" not in vars(model) and "states" not in vars(model)


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
    # read back sorted by (source, target) and free of duplicates, as serialised
    assert list(zip(src.tolist(), dst.tolist())) == [(0, 0), (0, 2), (3, 1)]
    assert not src.flags.writeable and not dst.flags.writeable
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
    """The confusion model (player 2 confused) and the epistemic lift, read
    back through `agent_edges` and `pre`: i sees j iff they agree on the
    player's own coordinate and, unless the player is confused, the form."""
    game = vote3_game()
    restricted = restrict(game.form, {1: ["a"], 3: ["b", "c"]})
    for model in (confusion_model(game, restricted, [2]), epistemic_lift(game)):
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
            rel = np.zeros((model.size, model.size), dtype=bool)
            rel[tuple(np.array(want).T)] = True
            assert np.array_equal(relation_via_pre(model, Agent(player)), rel)


@given(st.sampled_from(("sparse", "forms")), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_agent_relations_match_the_given_pairs(kind, seed):
    """Pair lists with repeats, self-loops and no order, and some players
    given none: `agent_edges` reads back the distinct pairs in (source,
    target) order, and `pre` of `ag i`, `ag i^` and `(ag i + ag i^)*`
    matches the dense relation built here from the pairs themselves."""
    rng = random.Random(seed)
    base = _random_model(kind, rng)
    m = base.size
    given_pairs = {}
    for player in base.ambient.players:
        if rng.random() < 0.25:
            continue
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(rng.randint(0, 2 * m))]
        pairs += [(i, i) for i in rng.sample(range(m), rng.randint(0, m))]
        pairs += rng.sample(pairs, len(pairs) // 3)
        rng.shuffle(pairs)
        given_pairs[player] = pairs
    model = IntensionalModel(base.ambient, base.forms, base.worlds, base.outcomes, given_pairs)
    for player in base.ambient.players:
        pairs = given_pairs.get(player, [])
        src, dst = model.agent_edges(player)
        assert list(zip(src.tolist(), dst.tolist())) == sorted(set(pairs))
        rel = np.zeros((m, m), dtype=bool)
        for i, j in pairs:
            rel[i, j] = True
        for program, want in [
            (Agent(player), rel),
            (AgentConv(player), rel.T),
            (knowledge(player), rtc(rel | rel.T)),
        ]:
            assert np.array_equal(relation_via_pre(model, program), want)


# --------------------------------------------------------------------------
# Dense models hold no world rows


def _dense_model(kind: str, rng: random.Random):
    """A dense model (every form's full grid, in order) and its forms, built
    the package's way: a game's model, its epistemic lift, or ("frame")
    several copies of one form with winners, as the dictator check batches
    induced games."""
    game = random_game(rng, size_range=(1, 3))
    if kind == "game":
        return MaslModel(game)
    if kind == "lift":
        return epistemic_lift(game)
    copies = rng.randint(2, 4)
    records = [
        OutcomeRecord(
            rng.choice("xyz"),
            [rng.randint(0, 3) for _ in range(game.form.n)],
            rng.choice([None, ["a"], ["a", "b"]]),
        )
        for _ in range(copies * len(game.outcomes))
    ]
    forms = [(str(k), game.form) for k in range(copies)]
    return IntensionalModel(
        game.form, forms, models._GRID, Outcomes.from_records(records, game.form.n)
    )


@given(st.sampled_from(("game", "lift", "frame")), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_dense_models_match_their_rebuild_from_rows(kind, seed, shuffled):
    """Each dense model agrees with the model built from its worlds as
    explicit (form, profile) rows, and the lift's relations as pairs.  In
    order, the rows are dense again; shuffled, the rebuild keeps each
    world's slot, and its world j is the dense model's world order[j]."""
    rng = random.Random(seed)
    model = _dense_model(kind, rng)
    profiles = all_profiles(model.ambient)
    rows = [(k, s) for k in range(len(model.forms)) for s in profiles]
    order = list(range(len(rows)))
    if shuffled:
        rng.shuffle(order)
    place = {old: new for new, old in enumerate(order)}
    edges = None
    if kind == "lift":
        edges = {
            player: [
                (place[i], place[j])
                for i, s in enumerate(profiles)
                for j, t in enumerate(profiles)
                if s[player - 1] == t[player - 1]
            ]
            for player in model.ambient.players
        }
    table = model.outcomes
    outcomes = dataclasses.replace(
        table,
        codes=table.codes[order],
        label_codes=table.label_codes[order],
        winners=None if table.winners is None else table.winners[order],
    )
    again = IntensionalModel(
        model.ambient, model.forms, [rows[k] for k in order], outcomes, edges
    )
    assert (again._slots is None) == (not shuffled or order == sorted(order))

    assert model.size == again.size == len(rows)
    assert model.worlds == rows and model.states == [s for _, s in rows]
    assert again.worlds == [rows[k] for k in order]
    assert again.states == [rows[k][1] for k in order]
    for j, k in enumerate(order):
        form_id, (form_idx, profile) = model.forms[rows[k][0]][0], rows[k]
        key = model.ambient.profile_key(profile)
        key = key if form_id is None else f"{form_id}:{key}"
        assert model.state_key(k) == again.state_key(j) == key
        assert model.index(key) == k and again.index(key) == j
        where = profile if form_id is None else (form_idx, profile)
        assert model.index(where) == k and again.index(where) == j

    sig = model_signature(model)
    leaves = [Top(), *(Label(label) for label in table.labels)]
    leaves += [UtilEq(p, v) for p in model.ambient.players for v in sig.util_range]
    leaves += [Winner(a) for a in sig.alternatives or ()]
    leaves += [VectorAtom(random_vector(rng, sig)) for _ in range(3)]
    pools = dict(values=sig.util_range, labels=table.labels, agents=kind == "lift")
    formulas = leaves + [random_formula(rng, sig, 3, **pools) for _ in range(4)]
    for f in formulas:
        mask, other = extension(model, f), extension(again, f)
        assert np.array_equal(mask[order], other)
        for m, got in ((model, mask), (again, other)):
            first = None if got.all() else m.state_key(int(got.argmin()))
            assert counterexample(m, f) == first
        for j, k in enumerate(order):
            assert satisfies(model, k, f) == satisfies(again, j, f) == bool(mask[k])

    for player in model.ambient.players if kind == "lift" else ():
        src, dst = model.agent_edges(player)
        want = sorted((place[i], place[j]) for i, j in zip(src.tolist(), dst.tolist()))
        src, dst = again.agent_edges(player)
        assert list(zip(src.tolist(), dst.tolist())) == want == sorted(edges[player])
    if kind != "lift":
        with pytest.raises(EvalError):
            again.agent_edges(1)


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
# The compiled plan runner against the fold oracle


def _outcome(evaluate, model, formula):
    """The formula's mask, or the message of the EvalError it raises."""
    try:
        return evaluate(model, formula)
    except EvalError as exc:
        return str(exc)


def _same(got, want) -> bool:
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return np.array_equal(got, want)


def _dag(rng: random.Random, sig: Signature, parts: list) -> Formula:
    """Connectives over a pool that starts as `parts` and takes in each new
    node, so later nodes reuse earlier ones as shared subtrees."""
    pool = list(parts)
    for _ in range(8):
        kind = rng.choice((Not, And, Or, Implies, Iff, Box, Diamond))
        if kind is Not:
            node = Not(rng.choice(pool))
        elif kind in (Box, Diamond):
            node = kind(Vec(random_vector(rng, sig)), rng.choice(pool))
        else:
            node = kind(rng.choice(pool), rng.choice(pool))
        pool.append(node)
    return pool[-1]


@given(
    st.sampled_from(("flat", "lift", "confusion", "forms", "sparse")),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_runner_matches_the_fold_oracle(kind, seed):
    """Random formulas, a DAG over their subtrees and an equal but distinct
    copy of one of them, evaluated root by root on one model and as one
    batch on a fresh copy of it: the same masks as the fold evaluator, or
    the same first error.  Values outside the range and agent programs on a
    model without agents now and then make errors to compare."""
    rng = random.Random(seed)
    model = _random_model(kind, rng)
    sig = model_signature(model)
    pools = dict(
        values=sig.util_range + ((99,) if rng.random() < 0.2 else ()),
        labels=tuple(sorted(model.outcomes.labels)),
        agents=kind != "flat" or rng.random() < 0.2,
    )
    first, second = (random_formula(rng, sig, 3, **pools) for _ in range(2))
    twin = copy.deepcopy(first)
    assert twin == first and twin is not first
    subtrees = [node for node in node_objects(first) if isinstance(node, Formula)]
    dag = _dag(rng, sig, [second, *rng.sample(subtrees, min(3, len(subtrees)))])
    roots = [And(first, second), Or(twin, dag), dag]
    want = [_outcome(fold_oracle.extension, model, root) for root in roots]
    for root, expected in zip(roots, want):
        assert _same(_outcome(extension, model, root), expected)
    fresh = _random_model(kind, random.Random(seed))
    errors = [w for w in want if isinstance(w, str)]
    plan = compile_plan(roots)
    if errors:
        with pytest.raises(EvalError) as exc:
            run_plan(fresh, plan)
        assert str(exc.value) == errors[0]
    else:
        sets = run_plan(fresh, plan)
        for slot, expected in zip(plan.roots, want):
            assert np.array_equal(fresh.mask(sets[slot]), expected)


@given(st.sampled_from(("flat", "forms", "sparse")), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_compile_plan_matches_the_recursive_compile(kind, seed):
    """Random formulas, a DAG over their subtrees, an equal but distinct
    copy of one of them and a root repeated: the plan's columns are the
    recursive compile's, post-order, children left to right, each node
    shared by identity once."""
    rng = random.Random(seed)
    sig = model_signature(_random_model(kind, rng))
    first, second = (random_formula(rng, sig, 4) for _ in range(2))
    subtrees = [node for node in node_objects(first) if isinstance(node, Formula)]
    dag = _dag(rng, sig, [second, *rng.sample(subtrees, min(3, len(subtrees)))])
    roots = [And(first, second), Or(copy.deepcopy(first), dag), dag, first, Not(dag)]
    plan = compile_plan(roots)
    ops, nodes, left, right, slots = plan_oracle.compile_plan(roots)
    assert (list(plan.ops), plan.left, plan.right, plan.roots) == (ops, left, right, slots)
    assert len(plan.nodes) == len(nodes) and all(a is b for a, b in zip(plan.nodes, nodes))


@given(st.sampled_from(("sparse", "confusion")), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_the_first_falsifying_world_is_first_in_enumeration_order(kind, seed):
    """On a shuffled subset of profiles, or a restricted form joined to the
    full one, a world's place in the enumeration is not its cell in the
    profile grid: `counterexample` and `validity_report` must still name
    the first falsifying world in enumeration order."""
    rng = random.Random(seed)
    model = _random_model(kind, rng)
    sig = model_signature(model)
    pools = dict(values=sig.util_range, labels=tuple(sorted(model.outcomes.labels)))
    formulas = [random_formula(rng, sig, 3, **pools) for _ in range(6)]
    want = []
    for formula in formulas:
        bad = np.flatnonzero(~fold_oracle.extension(model, formula))
        want.append(model.state_key(int(bad[0])) if len(bad) else None)
    assert [counterexample(model, formula) for formula in formulas] == want
    instances = [AxiomInstance("random", formula, "") for formula in formulas]
    report = validity_report([("m", model)], instances)
    assert [res.counterexamples for res in report] == [
        () if key is None else (("m", key),) for key in want
    ]
    assert [res.valid for res in report] == [key is None for key in want]


def test_single_axis_vectors_on_an_uneven_grid_match_the_dense_oracle():
    """A 4x5x6x7 grid (840 profiles): every vector that is `??` at one
    position and `!!` elsewhere, Concrete at one position and `!!`
    elsewhere, or `!!` at one position and `??` elsewhere.  The axis
    strides (210, 42, 7, 1) leave no axis aligned to a machine word."""
    form = GameForm([tuple("abcdefg"[:size]) for size in (4, 5, 6, 7)])
    game = from_outcomes(
        form, {s: OutcomeRecord(form.profile_key(s), [0] * 4) for s in all_profiles(form)}
    )
    model = MaslModel(game)
    assert model.size == 840
    vectors = []
    for pos, names in enumerate(form.strategy_sets):
        for inner, outer in ((ADV, CUR), (CUR, ADV)):
            vectors.append(Vector([inner if k == pos else outer for k in range(4)]))
        for name in names:
            vectors.append(Vector([Concrete(name) if k == pos else CUR for k in range(4)]))
    assert len(vectors) == 30
    rng = random.Random(840)
    targets = [
        np.array([rng.random() < 0.02 for _ in range(840)]),
        np.array([rng.random() < 0.5 for _ in range(840)]),
        np.arange(840) == rng.randrange(840),
        np.zeros(840, dtype=bool),
        np.ones(840, dtype=bool),
    ]
    for vector in vectors:
        rel = vector_relation(model, vector)
        for target in targets:
            assert np.array_equal(pre(model, Vec(vector), target), compose(rel, target))


def test_a_formula_is_compiled_once_across_models(monkeypatch):
    calls = []
    compile_once = models.compile_plan

    def counted(roots):
        calls.append(roots)
        return compile_once(roots)

    monkeypatch.setattr(models, "compile_plan", counted)
    game = vote3_game()
    formula = properties.nash_here(Signature.from_game(game))
    masks = [extension(model, formula) for model in (MaslModel(game), MaslModel(game))]
    extension(epistemic_lift(game), formula)
    assert len(calls) == 1
    assert np.array_equal(*masks) and masks[0] is not masks[1]


def test_a_compiled_plan_hashes_no_connective_on_a_fresh_model(monkeypatch):
    """Compiling tells nodes apart by identity and hashes none; running
    computes a connective from its children's sets and keeps no set under
    it, so only leaves, and the vectors of modalities, are hashed."""
    game = vote3_game()
    sig = Signature.from_game(game)
    nash = build_property("nashHere", sig)
    formula = Iff(nash, Implies(build_property("resolute", sig), Not(nash)))
    want = extension(MaslModel(game), formula)
    hashed = []
    node_hash = Node.__hash__

    def counted(self):
        hashed.append(type(self))
        return node_hash(self)

    monkeypatch.setattr(Node, "__hash__", counted)
    compile_plan([formula, copy.deepcopy(formula)])
    assert not hashed
    assert np.array_equal(extension(MaslModel(game), formula), want)
    assert hashed and not {Not, And, Or, Implies, Iff, Box, Diamond} & set(hashed)


# --------------------------------------------------------------------------
# Memory stays linear in the number of profiles


def _game_7776(seed: int):
    """A random 6x6x6x6x6 game with utilities 0 to 3."""
    rng = random.Random(seed)
    form = GameForm([("a", "b", "c", "d", "e", "f")] * 5)
    return from_outcomes(
        form,
        {
            s: OutcomeRecord(form.profile_key(s), [rng.randint(0, 3) for _ in range(5)])
            for s in all_profiles(form)
        },
    )


def test_nash_and_star_memory_is_linear_at_7776_profiles():
    game = _game_7776(41)
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


def test_knowing_dictator_on_a_7776_world_lift_stays_small_and_fast():
    """Each player's relation on the lift of a 6^5 game is six classes of
    1 296 worlds; as edges it would be about 50 M pairs (roughly 800 MB)."""
    game = _game_7776(43)
    sig = Signature.from_game(game)
    start = time.perf_counter()
    know = extension(epistemic_lift(game), knowing_dictator(sig, 1))
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        lift = epistemic_lift(game)
        extension(lift, knowing_dictator(sig, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert seconds < 0.5, f"{seconds:.2f} s"
    # player 1 knows a fact iff it holds wherever their own strategy is played
    grid = extension(lift, dictator(sig, 1)).reshape([6] * 5)
    want = np.broadcast_to(grid.all(axis=(1, 2, 3, 4), keepdims=True), grid.shape)
    assert np.array_equal(know, want.reshape(-1))
    # labels are profile keys, so one label is one world
    here = Label("a,b,c,d,e")
    player1 = np.array([s[0] == 0 for s in lift.states])
    player2 = np.array([s[1] == 1 for s in lift.states])
    assert np.array_equal(extension(lift, Diamond(knowledge(1), here)), player1)
    assert np.array_equal(extension(lift, Box(knowledge(2), Not(here))), ~player2)


def test_dense_models_of_a_279936_profile_game_build_without_world_rows():
    """A 6^7 game's model and its lift hold no per-world rows: 279 936 int64
    (form, *profile) rows alone would take 17.9 MB."""
    form = GameForm([("a", "b", "c", "d", "e", "f")] * 7)
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 4, size=(6**7, 7), dtype=np.uint8)
    values = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))
    game = StrategicGame(form, Outcomes(values, codes, ("x",), np.zeros(6**7, dtype=np.uint8)))
    for build in (MaslModel, epistemic_lift):
        tracemalloc.start()
        try:
            model = build(game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{build.__name__}: peak {peak / 2**20:.1f} MB"
        assert model.size == 6**7
        assert model.state_key(6**7 - 1).endswith("f,f,f,f,f,f,f")
        del model


@pytest.mark.parametrize("values", [10, 25, 55])
def test_nash_here_evaluates_each_distinct_subformula_once(values, monkeypatch):
    """The |U| ladder, counted rather than timed: on 27 profiles each
    distinct subformula of `nashHere` is one object, so its plan has one
    entry per subformula and computes each once.  The model's cache grows
    by exactly the formula's distinct leaves, and `_pre` runs once per box
    or diamond entry of the plan."""
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
    plan = compile_plan([formula])
    assert len(plan.nodes) == len(subformulas)
    modal = sum(op in (models._BOX, models._DIAMOND) for op in plan.ops)
    leaves = {f for f in subformulas if models._OPS[type(f)] == models._LEAF}
    calls = []
    pre_once = models._pre

    def counted(model, program, target):
        calls.append(program)
        return pre_once(model, program, target)

    monkeypatch.setattr(models, "_pre", counted)
    cached = set(model._ext_cache)
    nash = extension(model, formula)
    assert set(model._ext_cache) - cached == leaves
    assert len(calls) == modal > 0
    assert {model.states[int(i)] for i in np.flatnonzero(nash)} == nash_set(game)


def test_evaluating_a_formula_makes_no_reference_cycle():
    """A plan keeps the leaves and programs it reads, not the formula it is
    kept on, and a lone atom gets no plan: reference counting alone frees
    what evaluating a formula made."""
    model = MaslModel(prisoners_dilemma())
    sig = model_signature(model)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for text in ("u1=1 & <(c,??)> u2=2", "<(c,??)> u2=2", "~u1=1"):
            formula = parse(text, sig)
            extension(model, formula)
            satisfies(model, "c,c", formula)
            del formula
            assert gc.collect() == 0, text
    finally:
        if enabled:
            gc.enable()


def test_a_wide_formula_leaves_only_its_leaves_on_the_model():
    """`nashHere` on a 6^5 game with 80 utility values is a plan of about
    2 400 entries; a set is about 1 KB.  Once the call returns, the model
    keeps the sets of its payoff atoms and of `T`, and the mask handed
    out: a set kept for every entry would take about 2.4 MB."""
    form = GameForm([tuple("abcdef")] * 5)
    rng = np.random.default_rng(20)
    codes = rng.integers(0, 80, size=(6**5, 5), dtype=np.uint8)
    codes[:80, 0] = np.arange(80)
    values = tuple(Fraction(v, 2) for v in range(80))
    game = StrategicGame(form, Outcomes(values, codes, ("x",), np.zeros(6**5, dtype=np.uint8)))
    formula = build_property("nashHere", Signature.from_game(game))
    extension(MaslModel(game), formula)  # compiles the plan onto the formula
    tracemalloc.start()
    try:
        model = MaslModel(game)
        built, _ = tracemalloc.get_traced_memory()
        nash = extension(model, formula)
        kept = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert len(formula._plan.nodes) > 2000
    assert {type(f) for f in model._ext_cache} == {UtilEq, Top}
    assert len(model._ext_cache) <= 5 * 80 + 1
    assert kept < 2**19, f"kept {kept / 2**20:.2f} MB"
    assert {model.states[int(i)] for i in np.flatnonzero(nash)} == nash_set(game)


def test_a_star_runs_its_compound_test_once_per_pre_call(monkeypatch):
    """`<(?~nashHere; (??,!!,!!) + ...)*> u1=0` applies the test in each
    round of the star; the test's set is computed once per `_pre` call.
    Without that, every round would run the test's plan again."""
    game = vote3_game()
    sig = Signature.from_game(game)
    test = ProgTest(Not(build_property("nashHere", sig)))
    moves = [seq(test, Vec(Vector([ADV if k == i else CUR for k in range(3)]))) for i in range(3)]
    formula = Diamond(Star(choice(*moves)), UtilEq(1, 0))
    want = fold_oracle.extension(MaslModel(game), formula)
    runs = []
    run_once = models.run_plan

    def counted(model, plan):
        runs.append(plan)
        return run_once(model, plan)

    monkeypatch.setattr(models, "run_plan", counted)
    model = MaslModel(game)
    assert np.array_equal(extension(model, formula), want)
    assert len(runs) == 2  # the formula's plan, then the test's
    assert runs[1] is test.body._plan
    assert not want.all() and want.sum() > extension(model, UtilEq(1, 0)).sum()


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
