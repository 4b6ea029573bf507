"""The axiom-schema harness: instantiation and model-validity sweeps."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import (
    ADV,
    ALL_SCHEMAS,
    Box,
    Concrete,
    EPISTEMIC_SCHEMAS,
    EvalError,
    MaslModel,
    Signature,
    Top,
    UtilEq,
    VECTOR_SCHEMAS,
    Vector,
    all_profiles,
    counterexample,
    epistemic_lift,
    restrict,
    validity_report,
)
from stratlogic.axioms import (
    AxiomInstance,
    InstanceResult,
    default_pool,
    instantiate_many,
)
from stratlogic.syntax import Agent, Not, Winner, render
from stratlogic.catalog import prisoners_dilemma, vote3_game

import axiom_oracle
import fold_oracle
from builders import from_outcomes, functionality_shape, node_objects
from gens import random_eval_formula, random_game, random_lift_game

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
        instantiate_many(["NoSuchSchema"], PD_SIG)


def test_enumerate_vectors_families_and_order():
    vecs = axiom_oracle.enumerate_vectors(PD_SIG)
    # Effectivity has one instance per vector, in the enumeration's order.
    effectivity = instantiate_many(["Effectivity"], PD_SIG)
    assert [inst.formula.program.vector for inst in effectivity] == vecs
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
    for inst in instantiate_many(["Functionality"], PD_SIG):
        # no instance mentions the adversary wildcard
        assert "??" not in inst.about


def test_undetermined_functionality_counterexample():
    # the one-adversary vector has two possible outcomes, so "possibly phi"
    # does not entail "necessarily phi"
    model = MaslModel(PD)
    shape = functionality_shape(Vector([Concrete("c"), ADV]), UtilEq(2, 3))
    where = counterexample(model, shape)
    assert where == "c,c"
    report = validity_report([("pd", model)], instantiate_many(["Functionality"], PD_SIG))
    assert all(r.valid for r in report)


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
    report = validity_report([("lift", lift)], instantiate_many(["OtherActionIgnorance"], sig))
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


def _oracle_report(models, instances):
    """Instance by instance, model by model, with the fold evaluator: the
    results, or the message of the first EvalError."""
    results = []
    try:
        for instance in instances:
            failures = []
            for label, model in models:
                mask = fold_oracle.extension(model, instance.formula)
                if not mask.all():
                    failures.append((label, model.state_key(int(np.flatnonzero(~mask)[0]))))
            results.append(InstanceResult(instance, not failures, tuple(failures)))
    except EvalError as exc:
        return str(exc)
    return results


def _report(models, instances):
    try:
        return validity_report(models, instances)
    except EvalError as exc:
        return str(exc)


# Evaluable on the lift only, and on no model.
_AGENTS = AxiomInstance("hand", Box(Agent(1), Top()), "agents")
_RANGE = AxiomInstance("hand", UtilEq(1, 99), "range")


def test_validity_report_raises_the_first_error_of_the_instance_order():
    lift, game = epistemic_lift(PD), MaslModel(PD)
    instances = [AxiomInstance("hand", Top(), "ok"), _AGENTS, _RANGE]
    with pytest.raises(EvalError, match="agent programs need a model with agent relations"):
        validity_report([("lift", lift), ("game", game)], instances)
    with pytest.raises(EvalError, match="utility value 99 is not in the model's range"):
        validity_report([("lift", lift)], instances)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_batched_report_matches_the_instance_by_instance_oracle(seed):
    """Vector schema instances, random formulas (which often fail somewhere)
    and now and then epistemic instances or agent programs, which cannot be
    evaluated on the game's model, or a value outside the range, over one
    to three models."""
    rng = random.Random(seed)
    game = random_lift_game(rng)
    sig = Signature.from_game(game)
    models = [("lift", epistemic_lift(game)), ("game", MaslModel(game)), ("again", MaslModel(game))]
    models = rng.sample(models, rng.randint(1, 3))
    instances = rng.sample(instantiate_many(VECTOR_SCHEMAS, sig), 10)
    if rng.random() < 0.2:
        instances += rng.sample(instantiate_many(EPISTEMIC_SCHEMAS, sig), 2)
    instances += [
        AxiomInstance("random", random_eval_formula(rng, game, 3, agents=rng.random() < 0.1), "r")
        for _ in range(12)
    ]
    instances += [bad for bad in (_AGENTS, _RANGE) if rng.random() < 0.1]
    rng.shuffle(instances)
    assert _report(models, instances) == _oracle_report(models, instances)


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


@st.composite
def _signatures(draw) -> Signature:
    """2–3 players with 1–3 strategies each (names overlap across players),
    no utility range or 1–4 exact values including fractions, with or without
    alternatives."""
    names = ("a", "b", "c")
    strategy_sets = tuple(
        tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)))
        for _ in range(draw(st.integers(2, 3)))
    )
    values = draw(
        st.none()
        | st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=1,
            max_size=4,
            unique=True,
        ).map(lambda vs: tuple(sorted(vs)))
    )
    alternatives = draw(
        st.none() | st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True).map(tuple)
    )
    return Signature(strategy_sets, values, alternatives)


@given(_signatures())
@settings(max_examples=40, deadline=None)
def test_instances_match_the_fresh_node_oracle_with_shared_nodes(sig):
    want = []
    for schema in ALL_SCHEMAS:
        alone = instantiate_many([schema], sig)
        oracle = axiom_oracle.instantiate(schema, sig)
        assert alone == oracle  # schema, formula and about, in order
        assert [render(i.formula) for i in alone] == [render(i.formula) for i in oracle]
        want += oracle
    got = instantiate_many(ALL_SCHEMAS, sig)
    assert got == want
    # No two distinct node objects of one call are equal: a dict keys nodes by
    # structural equality, so equal objects would share a key.
    nodes = list({id(n): n for i in got for n in node_objects(i.formula)}.values())
    assert len(dict.fromkeys(nodes)) == len(nodes)
