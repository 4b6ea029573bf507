"""The axiom-schema harness: instantiation and model-validity sweeps."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from stratlogic import (
    ADV,
    ALL_SCHEMAS,
    Concrete,
    EPISTEMIC_SCHEMAS,
    MaslModel,
    Signature,
    UtilEq,
    VECTOR_SCHEMAS,
    Vector,
    all_profiles,
    counterexample,
    epistemic_lift,
    instantiate,
    restrict,
    validity_report,
)
from stratlogic.axioms import (
    default_pool,
    enumerate_vectors,
    instantiate_many,
)
from stratlogic.syntax import Not, Winner
from stratlogic.catalog import prisoners_dilemma, vote3_game

from builders import from_outcomes, functionality_shape
from gens import random_game, random_lift_game

PD = prisoners_dilemma()
PD_SIG = Signature.from_game(PD)


def test_schema_registry():
    assert VECTOR_SCHEMAS == (
        "Effectivity",
        "Seriality",
        "Functionality",
        "AdversaryPower",
        "DeterminateCurrentChoice",
    )
    assert EPISTEMIC_SCHEMAS == (
        "ConverseA",
        "ConverseB",
        "OwnActionKnowledge",
        "OtherActionIgnorance",
    )
    assert ALL_SCHEMAS == VECTOR_SCHEMAS + EPISTEMIC_SCHEMAS


def test_unknown_schema_rejected():
    with pytest.raises(Exception):
        instantiate("NoSuchSchema", PD_SIG)


def test_enumerate_vectors_families_and_order():
    vecs = enumerate_vectors(PD_SIG)
    shapes = [
        tuple("?" if t is ADV else ("!" if t is not ADV and not isinstance(t, Concrete) else t.name) for t in v.terms)
        for v in vecs
    ]
    assert shapes == [
        ("c", "c"),
        ("c", "d"),
        ("d", "c"),
        ("d", "d"),
        ("?", "c"),
        ("?", "d"),
        ("c", "?"),
        ("d", "?"),
        ("!", "c"),
        ("!", "d"),
        ("c", "!"),
        ("d", "!"),
    ]


def test_default_pool_contents():
    pool = default_pool(PD_SIG)
    # one atom per (player, util value), plus its negation
    assert len(pool) == 16
    assert UtilEq(1, 0) in pool and Not(UtilEq(2, 3)) in pool
    vote_pool = default_pool(Signature.from_game(vote3_game()))
    # 3 players x 3 utils + 3 winner atoms, negations double it
    assert len(vote_pool) == 24
    assert Winner("b") in vote_pool


def test_instance_counts_on_pd():
    counts = Counter(i.schema for i in instantiate_many(ALL_SCHEMAS, PD_SIG))
    assert counts == {
        "Effectivity": 12,  # one per vector
        "Seriality": 12,
        "Functionality": 128,  # 8 determined vectors x 16 pool formulas
        "AdversaryPower": 64,  # 4 one-adversary vectors x 16
        "DeterminateCurrentChoice": 8,
        "ConverseA": 32,  # 2 agents x 16
        "ConverseB": 32,
        "OwnActionKnowledge": 4,  # sum of |S_i|
        "OtherActionIgnorance": 2,  # one conjunction per observer
    }


def test_instances_carry_about_strings():
    for inst in instantiate_many(ALL_SCHEMAS, PD_SIG):
        assert inst.about


def test_vector_schemas_valid_on_pd():
    model = MaslModel(PD)
    instances = instantiate_many(VECTOR_SCHEMAS, PD_SIG)
    report = validity_report([("pd", model)], instances)
    bad = [r for r in report if not r.valid]
    assert bad == []


def test_epistemic_schemas_valid_on_pd_lift():
    lift = epistemic_lift(PD)
    instances = instantiate_many(EPISTEMIC_SCHEMAS, PD_SIG)
    report = validity_report([("lift", lift)], instances)
    bad = [r for r in report if not r.valid]
    assert bad == []


def test_functionality_skips_undetermined_vectors():
    for inst in instantiate("Functionality", PD_SIG):
        # no instance mentions the adversary wildcard
        assert "??" not in inst.about


def test_undetermined_functionality_counterexample():
    # the one-adversary vector has two possible outcomes, so "possibly phi"
    # does not entail "necessarily phi"
    model = MaslModel(PD)
    shape = functionality_shape(Vector([Concrete("c"), ADV]), UtilEq(2, 3))
    where = counterexample(model, shape)
    assert where == "c,c"
    report = validity_report([("pd", model)], instantiate("Functionality", PD_SIG))
    assert all(r.valid for r in report)


def test_custom_pool_and_vectors():
    pool = [UtilEq(1, 0)]
    vecs = [Vector([Concrete("c"), Concrete("c")])]
    inst = instantiate("Functionality", PD_SIG, pool=pool, vectors=vecs)
    assert len(inst) == 1
    inst = instantiate("Seriality", PD_SIG, vectors=vecs)
    assert len(inst) == 1


def test_other_action_ignorance_fails_with_singleton_strategies():
    # restrict player 1 to a single strategy: player 2 then knows 1's action
    form = restrict(PD.form, {1: ["c"]})
    records = {
        s: PD.outcome(PD.form.profile_from_key(form.profile_key(s)))
        for s in all_profiles(form)
    }
    game = from_outcomes(form, records)
    lift = epistemic_lift(game)
    sig = Signature.from_game(game)
    report = validity_report([("lift", lift)], instantiate("OtherActionIgnorance", sig))
    verdicts = {r.instance.about: r.valid for r in report}
    assert verdicts == {"i=1": True, "i=2": False}
    failed = [r for r in report if not r.valid]
    assert failed[0].counterexamples  # names the offending world


def test_validity_report_counterexamples_name_model_and_state():
    model = MaslModel(PD)
    shape = functionality_shape(Vector([Concrete("d"), ADV]), UtilEq(1, 1))
    from stratlogic.axioms import AxiomInstance

    inst = AxiomInstance("Functionality", shape, "hand")
    report = validity_report([("pd", model)], [inst])
    assert not report[0].valid
    label, state = report[0].counterexamples[0]
    assert label == "pd"
    assert state in {"c,c", "c,d", "d,c", "d,d"}


def test_vector_schema_sweep():
    rng = random.Random(61)
    for _ in range(12):
        game = random_game(rng)
        sig = Signature.from_game(game)
        model = MaslModel(game)
        report = validity_report(
            [("g", model)], instantiate_many(VECTOR_SCHEMAS, sig)
        )
        assert all(r.valid for r in report)


def test_epistemic_schema_sweep():
    rng = random.Random(67)
    for _ in range(6):
        game = random_lift_game(rng)
        sig = Signature.from_game(game)
        lift = epistemic_lift(game)
        report = validity_report(
            [("lift", lift)], instantiate_many(EPISTEMIC_SCHEMAS, sig)
        )
        assert all(r.valid for r in report)
