"""The acceptance gate.

Nine criteria, each a single test with a wall-clock budget.  Every test
emits one ``[acceptance]`` line with its measured values; the conftest hook
repeats those lines in the terminal summary so the verdicts are visible in
a plain ``pytest`` run.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from stratlogic.axioms import (
    EPISTEMIC_SCHEMAS,
    VECTOR_SCHEMAS,
    instantiate_many,
    validity_report,
)
from stratlogic.catalog import (
    commitment_confusion,
    plurality3,
    prisoners_dilemma,
    three_voter_ballots,
    tiebreak3,
    vote3_game,
    vote3_tiebreak_game,
)
from stratlogic.coalition import cl_extension, translate
from stratlogic.models import (
    MaslModel,
    counterexample,
    epistemic_lift,
    extension,
    model_signature,
    satisfies,
    valid_in_model,
)
from stratlogic.parser import parse
from stratlogic.properties import build_property, dictator, knowing_dictator
from stratlogic.syntax import (
    ADV,
    Box,
    Choice,
    Concrete,
    Diamond,
    Signature,
    Star,
    UtilEq,
    Vec,
    Vector,
    render,
)
from stratlogic.voting import (
    AbsoluteMajority,
    Ballot,
    ConstantRule,
    DictatorRule,
    all_ballot_profiles,
    apply_rule,
    audit_rule,
    induced_game,
    set_better,
)

import coalition_oracle
from builders import functionality_shape
from conftest import record
from game_oracle import nash_set, weakly_dominant
from gens import (
    random_cl_formula,
    random_formula,
    random_game,
    random_lift_game,
    random_program,
)
from tables import PLURALITY_TABLE, TIEBREAK_TABLE

ALTS = ("a", "b", "c")

# One shared sweep of small random games (players <= 3, 1..3 strategies each,
# integer utilities 0..3) reused by criteria 3, 4 and 5a.
_SWEEP_SEED = 20260823
_SWEEP_SIZE = 120


def _make_sweep() -> list:
    rng = random.Random(_SWEEP_SEED)
    return [random_game(rng) for _ in range(_SWEEP_SIZE)]


SWEEP = _make_sweep()


def _gate(name: str, ok: bool, wall: float, limit: float, detail: str) -> None:
    in_budget = wall < limit
    status = "PASS" if ok and in_budget else "FAIL"
    record(
        f"[acceptance] {name}: {status} "
        f"({wall:.3f} s, limit {limit:g} s; {detail})"
    )
    assert ok, f"{name}: {detail}"
    assert in_budget, f"{name}: wall {wall:.3f} s exceeds {limit:g} s budget"


# --------------------------------------------------------------------------
# 1. Induced-game payoff tables match the frozen 27-cell transcriptions.


def test_c1_payoff_tables():
    start = time.perf_counter()
    plurality = induced_game(plurality3(), three_voter_ballots())
    tiebreak = induced_game(tiebreak3(), three_voter_ballots())
    mismatches = 0
    cells = 0
    for game, table in ((plurality, PLURALITY_TABLE), (tiebreak, TIEBREAK_TABLE)):
        assert game.form.profile_count() == 27 and len(table) == 27
        for names, utils in table.items():
            cells += 1
            s = game.form.profile_from_names(names)
            if game.outcome(s).utils != tuple(Fraction(u) for u in utils):
                mismatches += 1
    wall = time.perf_counter() - start
    _gate(
        "C1 payoff tables",
        mismatches == 0,
        wall,
        1.0,
        f"{cells - mismatches}/{cells} cells exact",
    )


# --------------------------------------------------------------------------
# 2. Equilibrium membership claims on the two voting models, via the formula.


def test_c2_equilibrium_claims():
    start = time.perf_counter()
    plain = MaslModel(vote3_game())
    tb = MaslModel(vote3_tiebreak_game())
    plain_nash = extension(plain, build_property("nashHere", model_signature(plain)))
    tb_nash = extension(tb, build_property("nashHere", model_signature(tb)))
    claims = {
        "plurality has a,b,c": bool(plain_nash[plain.index("a,b,c")]),
        "tiebreak lacks a,b,c": not tb_nash[tb.index("a,b,c")],
        "tiebreak has a,c,c": bool(tb_nash[tb.index("a,c,c")]),
    }
    wall = time.perf_counter() - start
    failed = [k for k, v in claims.items() if not v]
    _gate(
        "C2 equilibrium claims",
        not failed,
        wall,
        1.0,
        "3/3 membership claims exact" if not failed else f"failed: {failed}",
    )


# --------------------------------------------------------------------------
# 3. Formula extensions agree with the search oracles across the sweep.


def test_c3_oracle_agreement_sweep():
    start = time.perf_counter()
    nash_checks = dom_checks = mismatches = 0
    for game in SWEEP:
        model = MaslModel(game)
        sig = model_signature(model)
        by_formula = {
            model.states[int(i)]
            for i in np.flatnonzero(extension(model, build_property("nashHere", sig)))
        }
        nash_checks += 1
        if by_formula != nash_set(game):
            mismatches += 1
        for player in game.form.players:
            for strategy in game.form.strategies(player):
                dom_checks += 1
                formula = build_property(
                    "weakDominance", sig, player=player, strategy=strategy
                )
                if valid_in_model(model, formula) != weakly_dominant(
                    game, player, strategy
                ):
                    mismatches += 1
    wall = time.perf_counter() - start
    _gate(
        "C3 oracle agreement",
        mismatches == 0 and nash_checks >= 100,
        wall,
        30.0,
        f"{nash_checks} games, {dom_checks} dominance pairs, "
        f"{mismatches} mismatches",
    )


# --------------------------------------------------------------------------
# 4. Coalition-logic checking, its translation and the grid semantics agree
#    at every state.


def test_c4_translation_agreement_sweep():
    start = time.perf_counter()
    rng = random.Random(_SWEEP_SEED + 4)
    formulas = states = mismatches = 0
    for game in SWEEP:
        model = MaslModel(game)
        for _ in range(2):
            clf = random_cl_formula(rng, game, depth=3)
            grid = coalition_oracle.cl_extension(model, clf)
            direct = cl_extension(model, clf)
            routed = extension(model, translate(clf, game.form))
            formulas += 1
            states += model.size
            if not (np.array_equal(direct, grid) and np.array_equal(routed, grid)):
                mismatches += 1
    wall = time.perf_counter() - start
    _gate(
        "C4 translation agreement",
        mismatches == 0 and formulas >= 200,
        wall,
        60.0,
        f"{formulas} formulas over {states} state checks, "
        f"{mismatches} mismatches",
    )


# --------------------------------------------------------------------------
# 5. Axiom soundness: vector schemas on the sweep, the undetermined-vector
#    counterexample, and the knowledge schemas on epistemic lifts.


def test_c5_axiom_soundness():
    start = time.perf_counter()
    invalid = []
    vector_instances = 0
    for k, game in enumerate(SWEEP):
        model = MaslModel(game)
        instances = instantiate_many(VECTOR_SCHEMAS, model_signature(model))
        vector_instances += len(instances)
        for res in validity_report([(f"g{k}", model)], instances):
            if not res.valid:
                invalid.append((res.instance.schema, res.instance.about))

    # A vector leaving one coordinate to the adversary is no function: the
    # box direction of Functionality must fail on the two-player dilemma.
    pd = MaslModel(prisoners_dilemma())
    bad = functionality_shape(Vector((Concrete("c"), ADV)), UtilEq(2, 3))
    witness = counterexample(pd, bad)
    counterexample_found = not valid_in_model(pd, bad) and witness is not None

    lifts = 0
    epistemic_instances = 0
    rng = random.Random(_SWEEP_SEED + 5)
    for k in range(30):
        game = random_lift_game(rng)
        lift = epistemic_lift(game)
        instances = instantiate_many(
            EPISTEMIC_SCHEMAS, Signature.from_game(game)
        )
        epistemic_instances += len(instances)
        lifts += 1
        for res in validity_report([(f"lift{k}", lift)], instances):
            if not res.valid:
                invalid.append((res.instance.schema, res.instance.about))

    wall = time.perf_counter() - start
    if invalid:
        detail = f"invalid instances: {invalid[:3]}"
    elif not counterexample_found:
        detail = "undetermined-vector counterexample not found"
    else:
        detail = (
            f"{vector_instances} vector instances on {len(SWEEP)} games and "
            f"{epistemic_instances} knowledge instances on {lifts} lifts all "
            f"valid; undetermined-vector counterexample at {witness!r}"
        )
    _gate(
        "C5 axiom soundness",
        not invalid and counterexample_found,
        wall,
        60.0,
        detail,
    )


# --------------------------------------------------------------------------
# 6. The voting audits and the dictatorship implication, exhaustively.


def test_c6_voting_audits():
    start = time.perf_counter()
    problems = []

    profiles = sum(1 for _ in all_ballot_profiles(ALTS, 3))
    if profiles != 216:
        problems.append(f"expected 216 ballot profiles, saw {profiles}")
    if vote3_game().form.profile_count() != 27:
        problems.append("induced games should have 27 states")

    tb = audit_rule(tiebreak3(), 3)
    if not (
        tb.resolute
        and tb.non_imposed
        and not tb.strategy_proof
        and not tb.dictators
    ):
        problems.append(f"tiebreak verdicts off: {tb}")
    witness = tb.manipulation
    if witness is None:
        problems.append("tiebreak audit produced no manipulation witness")
    else:
        before = apply_rule(tiebreak3(), witness.profile)
        deviated = list(witness.profile)
        deviated[witness.voter - 1] = witness.deviation
        after = apply_rule(tiebreak3(), deviated)
        if not (
            before == witness.before
            and after == witness.after
            and set_better(after, before, witness.profile[witness.voter - 1])
        ):
            problems.append(f"manipulation witness does not replay: {witness}")

    # The worked manipulation at the truthful standoff: voter 2 pretends the
    # order is cba and swings the tie-broken winner from a to c.
    truthful = three_voter_ballots()
    deviated = list(truthful)
    deviated[1] = Ballot.parse("cba", ALTS)
    story_after = apply_rule(tiebreak3(), deviated)
    if not (
        apply_rule(tiebreak3(), truthful) == frozenset({"a"})
        and story_after == frozenset({"c"})
        and set_better(story_after, frozenset({"a"}), truthful[1])
    ):
        problems.append("truthful-profile manipulation story does not replay")

    d1 = audit_rule(DictatorRule(ALTS, 1), 3)
    if not (
        d1.resolute
        and d1.strategy_proof
        and d1.non_imposed
        and d1.dictators == frozenset({1})
    ):
        problems.append(f"dictator-rule verdicts off: {d1}")

    constant = audit_rule(ConstantRule(ALTS, "b"), 3)
    if constant.non_imposed:
        problems.append("a constant rule must be imposed")

    catalog_rules = (
        plurality3(),
        AbsoluteMajority(ALTS),
        DictatorRule(ALTS, 1),
        ConstantRule(ALTS, "b"),
        tiebreak3(),
    )
    audited = [audit_rule(rule, 3) for rule in catalog_rules]
    inconsistent = [r.rule for r in audited if not r.gs_consistent]
    if inconsistent:
        problems.append(f"dictatorship implication fails for {inconsistent}")

    wall = time.perf_counter() - start
    if problems:
        detail = "; ".join(problems)
    else:
        detail = (
            f"5 rules audited over {profiles} profiles; witness and "
            "truthful-profile story replay; implication holds"
        )
    _gate("C6 voting audits", not problems, wall, 300.0, detail)


# --------------------------------------------------------------------------
# 7. In the commitment-confusion model the dictatorship holds at the actual
#    world but the dictator does not know it.


def test_c7_unknowing_dictator():
    start = time.perf_counter()
    model, actual = commitment_confusion()
    sig = Signature.from_game(prisoners_dilemma())
    holds = satisfies(model, actual, dictator(sig, 2))
    knows = satisfies(model, actual, knowing_dictator(sig, 2))
    wall = time.perf_counter() - start
    _gate(
        "C7 unknowing dictator",
        holds and not knows,
        wall,
        1.0,
        f"at {actual}: dictator(2)={holds}, knowingDictator(2)={knows}",
    )


# --------------------------------------------------------------------------
# 8. parse . render is the identity on random syntax trees.


def test_c8_parse_render_roundtrip():
    start = time.perf_counter()
    sig = Signature.from_game(vote3_game())
    rng = random.Random(_SWEEP_SEED + 8)
    failures = 0
    total = 1000
    for i in range(total):
        if i % 5 < 3:
            node = random_formula(rng, sig, depth=6)
            kind = "formula"
        else:
            node = random_program(rng, sig, depth=6)
            kind = "program"
        if parse(render(node), sig, kind) != node:
            failures += 1
    wall = time.perf_counter() - start
    _gate(
        "C8 parse/render round-trip",
        failures == 0,
        wall,
        10.0,
        f"{total - failures}/{total} trees survive, depth <= 6",
    )


# --------------------------------------------------------------------------
# 9. Performance smoke: a triply star-nested formula on the 27-state model.


def test_c9_star_nesting_performance():
    model = MaslModel(vote3_game())
    sig = model_signature(model)
    switch = Choice(
        Vec(Vector((Concrete("a"), ADV, ADV))),
        Vec(Vector((Concrete("b"), ADV, ADV))),
    )
    formula = Diamond(Star(Star(Star(switch))), build_property("nashHere", sig))
    start = time.perf_counter()
    mask = extension(model, formula)
    wall = time.perf_counter() - start
    _gate(
        "C9 star-nesting performance",
        bool(mask.all()) and model.size == 27,
        wall,
        0.1,
        f"extension over {model.size} states is total",
    )
