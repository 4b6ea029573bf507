"""Ballots, voting rules, induced games, and the manipulation audit."""

from __future__ import annotations

import random
import time
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import (
    Ballot,
    IntensionalModel,
    MaslModel,
    Signature,
    VotingError,
    VotingRule,
    all_profiles,
    apply_rule,
    audit_rule,
    extension,
    induced_game,
    model_signature,
    outcome_payoff,
    satisfies,
    set_better,
)
from stratlogic.properties import dictator, strategy_proof_inner
from stratlogic.voting import (
    AbsoluteMajority,
    ConstantRule,
    DictatorRule,
    Plurality,
    ResoluteWrap,
    all_ballots,
    find_manipulation,
    rule_dictators,
    winners_label,
)
from stratlogic.catalog import (
    plurality3,
    three_voter_ballots,
    tiebreak3,
    vote3_game,
    vote3_tiebreak_game,
)

import voting_oracle
from gens import random_game
from tables import PLURALITY_TABLE, TIEBREAK_TABLE
from voting_oracle import all_ballot_profiles

ALTS = ("a", "b", "c")


# --------------------------------------------------------------------------
# Ballots


def test_ballot_parse_forms():
    assert Ballot.parse("abc", ALTS).order == ("a", "b", "c")
    assert Ballot.parse("c,a,b", ALTS).order == ("c", "a", "b")
    assert str(Ballot.parse("bca", ALTS)) == "bca"


def test_ballot_parse_errors():
    with pytest.raises(VotingError):
        Ballot.parse("ab", ALTS)  # missing an alternative
    with pytest.raises(VotingError):
        Ballot.parse("abz", ALTS)  # unknown name
    with pytest.raises(VotingError):
        Ballot.parse("aba", ALTS)  # repeated
    with pytest.raises(VotingError):
        Ballot(())


def test_ballot_accessors():
    b = Ballot.parse("bca", ALTS)
    assert b.top == "b"
    assert b.position("b") == 0 and b.position("a") == 2
    assert b.prefers("c", "a") and not b.prefers("a", "c")
    with pytest.raises(VotingError):
        b.position("z")


# --------------------------------------------------------------------------
# Betterness and payoffs over outcome sets


def test_set_better_worked_cases():
    abc = Ballot.parse("abc", ALTS)
    assert set_better({"a"}, {"c"}, abc)
    assert not set_better({"a", "b", "c"}, {"b"}, abc)
    assert not set_better({"b"}, {"a", "b", "c"}, abc)
    assert not set_better({"a"}, {"a"}, abc)
    assert set_better({"a", "b"}, {"b", "c"}, abc)
    with pytest.raises(VotingError):
        set_better(set(), {"a"}, abc)


def _subsets(names):
    return [
        set(c)
        for c in chain.from_iterable(
            combinations(names, k) for k in range(1, len(names) + 1)
        )
    ]


@given(st.permutations(["a", "b", "c", "d"]))
@settings(max_examples=40, deadline=None)
def test_set_better_is_irreflexive_and_asymmetric(order):
    ballot = Ballot(order)
    for xs in _subsets(order):
        assert not set_better(xs, xs, ballot)
        for ys in _subsets(order):
            assert not (set_better(xs, ys, ballot) and set_better(ys, xs, ballot))


def test_set_better_on_singletons_is_the_ballot_order():
    ballot = Ballot.parse("bca", ALTS)
    for x in ALTS:
        for y in ALTS:
            assert set_better({x}, {y}, ballot) == ballot.prefers(x, y)


def test_outcome_payoff_worked_cases():
    abc = Ballot.parse("abc", ALTS)
    assert outcome_payoff({"a"}, abc) == 2
    assert outcome_payoff({"b"}, abc) == 1
    assert outcome_payoff({"c"}, abc) == 0
    assert outcome_payoff({"a", "b", "c"}, abc) == 1
    assert outcome_payoff({"b", "c"}, abc) == Fraction(1, 2)
    with pytest.raises(VotingError):
        outcome_payoff(set(), abc)


@given(st.permutations(["a", "b", "c", "d", "e"]))
@settings(max_examples=40, deadline=None)
def test_singleton_payoffs_enumerate_borda_scores(order):
    ballot = Ballot(order)
    scores = {outcome_payoff({x}, ballot) for x in order}
    assert scores == set(range(len(order)))


def test_set_better_implies_strictly_greater_payoff():
    ballot = Ballot.parse("cab", ALTS)
    for xs in _subsets(ALTS):
        for ys in _subsets(ALTS):
            if set_better(xs, ys, ballot):
                assert outcome_payoff(xs, ballot) > outcome_payoff(ys, ballot)


# --------------------------------------------------------------------------
# Rules


def test_plurality_worked_profile():
    # the six-voter profile (abc, abc, bca, abc, cab, acb): a has four tops
    rule = Plurality(ALTS)
    ballots = [Ballot.parse(t, ALTS) for t in ("abc", "abc", "bca", "abc", "cab", "acb")]
    assert apply_rule(rule, ballots) == frozenset({"a"})
    assert apply_rule(rule, ["a", "b", "c"]) == frozenset(ALTS)
    assert apply_rule(rule, ["b", "b", "c"]) == frozenset({"b"})


def test_tiebreak_wrap():
    rule = tiebreak3()
    assert apply_rule(rule, ["a", "b", "c"]) == frozenset({"a"})
    assert apply_rule(rule, ["c", "b", "c"]) == frozenset({"c"})
    assert rule.describe() == "plurality+tiebreak:abc"
    with pytest.raises(VotingError):
        ResoluteWrap(Plurality(ALTS), Ballot.parse("ab", ("a", "b")))


def test_absolute_majority():
    rule = AbsoluteMajority(ALTS)
    assert apply_rule(rule, ["a", "a", "b"]) == frozenset({"a"})
    assert apply_rule(rule, ["a", "b", "c"]) == frozenset(ALTS)
    assert apply_rule(rule, ["a", "a", "b", "b"]) == frozenset(ALTS)


def test_dictator_and_constant_rules():
    assert apply_rule(DictatorRule(ALTS, 2), ["a", "b", "c"]) == frozenset({"b"})
    assert apply_rule(ConstantRule(ALTS, "c"), ["a", "b", "a"]) == frozenset({"c"})
    with pytest.raises(VotingError):
        apply_rule(DictatorRule(ALTS, 5), ["a", "b", "c"])
    with pytest.raises(VotingError):
        ConstantRule(ALTS, "z")
    with pytest.raises(VotingError):
        DictatorRule(ALTS, 0)


def test_unknown_vote_rejected():
    with pytest.raises(VotingError):
        apply_rule(Plurality(ALTS), ["a", "z", "c"])


def test_winners_label_uses_declared_order():
    rule = Plurality(("c", "b", "a"))
    assert winners_label(rule, frozenset({"a", "c"})) == "c,a"
    assert winners_label(plurality3(), frozenset({"a", "c"})) == "a,c"


def test_ballot_enumeration_sizes():
    assert len(all_ballots(ALTS)) == 6
    assert len(list(all_ballot_profiles(ALTS, 3))) == 216
    assert [str(b) for b in all_ballots(("a", "b"))] == ["ab", "ba"]


# --------------------------------------------------------------------------
# Induced games: the frozen worked-example tables


def test_plurality_induced_game_matches_frozen_table():
    game = vote3_game()
    assert game.form.profile_count() == 27
    for names, utils in PLURALITY_TABLE.items():
        s = game.form.profile_from_names(names)
        assert game.outcome(s).utils == tuple(Fraction(u) for u in utils)


def test_tiebreak_induced_game_matches_frozen_table():
    game = vote3_tiebreak_game()
    for names, utils in TIEBREAK_TABLE.items():
        s = game.form.profile_from_names(names)
        assert game.outcome(s).utils == tuple(Fraction(u) for u in utils)


def test_induced_game_winner_labels():
    game = vote3_game()
    rec = game.outcome(game.form.profile_from_names(("a", "b", "c")))
    assert rec.winners == frozenset(ALTS)
    assert rec.label == "a,b,c"
    rec = game.outcome(game.form.profile_from_names(("b", "b", "c")))
    assert rec.winners == frozenset({"b"})
    assert rec.label == "b"


def test_induced_game_checks_ballots():
    with pytest.raises(VotingError):
        induced_game(plurality3(), [Ballot.parse("ab", ("a", "b"))] * 3)


# --------------------------------------------------------------------------
# Manipulations


def _assert_manipulation_valid(rule, manipulation):
    before = apply_rule(rule, manipulation.profile)
    assert before == manipulation.before
    deviated = list(manipulation.profile)
    deviated[manipulation.voter - 1] = manipulation.deviation
    after = apply_rule(rule, deviated)
    assert after == manipulation.after
    truth = manipulation.profile[manipulation.voter - 1]
    assert set_better(after, before, truth)


def test_tiebreak_is_manipulable():
    m = find_manipulation(tiebreak3(), 3)
    assert m is not None
    _assert_manipulation_valid(tiebreak3(), m)


def test_story_manipulation_at_truthful_profile():
    # truthful ballots (abc, bca, cab): voter 2 swings the outcome from a to c
    rule = tiebreak3()
    truthful = three_voter_ballots()
    assert apply_rule(rule, truthful) == frozenset({"a"})
    deviated = list(truthful)
    deviated[1] = Ballot.parse("cba", ALTS)
    after = apply_rule(rule, deviated)
    assert after == frozenset({"c"})
    assert set_better(after, frozenset({"a"}), truthful[1])


def test_unmanipulable_rules():
    assert find_manipulation(plurality3(), 3) is None
    assert find_manipulation(AbsoluteMajority(ALTS), 3) is None
    assert find_manipulation(DictatorRule(ALTS, 1), 3) is None
    assert find_manipulation(ConstantRule(ALTS, "b"), 3) is None


def _rule(name: str, alternatives: tuple[str, ...]):
    tiebreak = Ballot(reversed(alternatives))
    return {
        "plurality": lambda: Plurality(alternatives),
        "absolute_majority": lambda: AbsoluteMajority(alternatives),
        "plurality+tiebreak": lambda: ResoluteWrap(Plurality(alternatives), tiebreak),
        "absolute_majority+tiebreak": lambda: ResoluteWrap(
            AbsoluteMajority(alternatives), tiebreak
        ),
        "dictator:1": lambda: DictatorRule(alternatives, 1),
        "dictator:2": lambda: DictatorRule(alternatives, 2),
        "constant": lambda: ConstantRule(alternatives, alternatives[-1]),
    }[name]()


_RULE_NAMES = (
    "plurality",
    "absolute_majority",
    "plurality+tiebreak",
    "absolute_majority+tiebreak",
    "dictator:1",
    "dictator:2",
    "constant",
)
ALTS4 = ("a", "b", "c", "d")
# (rule, alternatives, voters): every rule on three alternatives and on two
# voters over four; at three and four voters over four alternatives, the
# rules whose first witness comes early, and one exhaustive None.
_SEARCH_CASES = [
    *((name, ALTS, n) for name in _RULE_NAMES for n in (2, 3, 4)),
    *((name, ALTS4, 2) for name in _RULE_NAMES),
    *(
        (name, ALTS4, n)
        for name in ("plurality+tiebreak", "absolute_majority+tiebreak")
        for n in (3, 4)
    ),
    ("plurality", ALTS4, 4),
    ("dictator:2", ALTS4, 3),
]


@pytest.mark.parametrize(
    "name, alternatives, n_voters",
    _SEARCH_CASES,
    ids=[f"{name}-{len(alts)}x{n}" for name, alts, n in _SEARCH_CASES],
)
def test_table_search_matches_the_per_profile_loop(name, alternatives, n_voters):
    rule = _rule(name, alternatives)
    assert find_manipulation(rule, n_voters) == voting_oracle.find_manipulation(
        rule, n_voters
    )


@pytest.mark.parametrize("name", ["dictator:1", "constant"])
def test_four_by_four_search_is_fast(name):
    # The per-profile loop takes about 43 s on each.
    rule = _rule(name, ALTS4)
    start = time.perf_counter()
    assert find_manipulation(rule, 4) is None
    assert time.perf_counter() - start < 2.0


# --------------------------------------------------------------------------
# Audits


def test_audit_tiebreak():
    report = audit_rule(tiebreak3(), 3)
    assert report.resolute
    assert report.non_imposed
    assert not report.strategy_proof
    assert report.manipulation is not None
    _assert_manipulation_valid(tiebreak3(), report.manipulation)
    assert report.dictators == frozenset()
    assert report.gs_consistent


def test_audit_dictator_rule():
    report = audit_rule(DictatorRule(ALTS, 1), 3)
    assert report.resolute
    assert report.strategy_proof
    assert report.non_imposed
    assert report.dictators == frozenset({1})
    assert report.gs_consistent


def test_audit_constant_rule():
    report = audit_rule(ConstantRule(ALTS, "a"), 3)
    assert report.resolute
    assert report.strategy_proof
    assert not report.non_imposed
    assert report.distinct_winner_sets == 1
    assert report.gs_consistent


def test_audit_plurality():
    report = audit_rule(plurality3(), 3)
    assert not report.resolute
    assert report.strategy_proof
    assert report.non_imposed
    assert report.dictators == frozenset()
    assert report.gs_consistent


def test_audit_absolute_majority():
    report = audit_rule(AbsoluteMajority(ALTS), 3)
    assert not report.resolute
    assert report.strategy_proof
    assert report.non_imposed
    assert report.gs_consistent


def test_audit_small_alternative_sets_note():
    report = audit_rule(Plurality(("a", "b")), 2)
    # {a}, {b} and the tie {a,b} all occur, so the winner-set count passes,
    # but the report flags that the |A| >= 3 reading was unavailable
    assert report.non_imposed and report.distinct_winner_sets == 3
    assert report.notes


def test_rule_dictators_two_voters():
    assert rule_dictators(DictatorRule(ALTS, 2), 2) == frozenset({2})
    assert rule_dictators(plurality3(), 2) == frozenset()


# --------------------------------------------------------------------------
# The dictatorship check read off the payoff table against the per-profile loop

_RULES = {
    "plurality": plurality3(),
    "absolute_majority": AbsoluteMajority(ALTS),
    "tiebreak": tiebreak3(),
    "dictator1": DictatorRule(ALTS, 1),
    "dictator2": DictatorRule(ALTS, 2),
    "constant": ConstantRule(ALTS, "b"),
}


@pytest.mark.parametrize("n_voters", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(_RULES))
def test_batched_dictators_match_the_per_profile_loop(name, n_voters):
    rule = _RULES[name]
    assert rule_dictators(rule, n_voters) == voting_oracle.rule_dictators(rule, n_voters)


@dataclass(frozen=True)
class _FirstUnlessSecondSaysA(VotingRule):
    """Voter 1's top wins, unless voter 2 casts `a`: then `a` wins."""

    alternatives: tuple[str, ...]

    def winners(self, tops):
        return frozenset({"a" if tops[1] == "a" else tops[0]})

    def describe(self) -> str:
        return "first-unless-second-says-a"


def test_batched_dictators_see_every_ballot_of_the_head_voters():
    """Voter 1 is a dictator in exactly the games where their true ballot
    ranks `a` first, as the first ballot does: a check that kept voter 1 at
    the first ballot would find voter 1 a dictator."""
    rule = _FirstUnlessSecondSaysA(ALTS)
    assert all_ballots(ALTS)[0].top == "a"
    assert rule_dictators(rule, 3) == voting_oracle.rule_dictators(rule, 3) == frozenset()


@dataclass(frozen=True)
class _TableRule(VotingRule):
    """Elects the winner set its table lists for each vector of cast tops,
    cells in `product` order."""

    alternatives: tuple[str, ...]
    table: tuple[frozenset[str], ...]

    def winners(self, tops):
        cell = 0
        for name in tops:
            cell = cell * len(self.alternatives) + self.alternatives.index(name)
        return self.table[cell]

    def describe(self) -> str:
        return "table"


@st.composite
def _table_rules(draw):
    """A random winner table, or a dictator rule perturbed in a few cells.
    A perturbation puts a random winner set in a cell, or swaps the winners
    of two cells that differ only in the dictator's cast; swaps alone keep
    the dictator able to elect any alternative."""
    alternatives, n_voters = draw(st.sampled_from([(ALTS, 2), (ALTS, 3), (ALTS4, 2)]))
    cells = list(product(alternatives, repeat=n_voters))
    winner_sets = st.frozensets(st.sampled_from(alternatives), min_size=1)
    if draw(st.booleans()):
        table = draw(st.lists(winner_sets, min_size=len(cells), max_size=len(cells)))
        return _TableRule(alternatives, tuple(table)), n_voters
    voter = draw(st.integers(1, n_voters))
    table = [frozenset({names[voter - 1]}) for names in cells]
    for _ in range(draw(st.integers(0, 3))):
        cell = draw(st.integers(0, len(cells) - 1))
        if draw(st.booleans()):
            table[cell] = draw(winner_sets)
        else:
            names = list(cells[cell])
            names[voter - 1] = draw(st.sampled_from(alternatives))
            other = cells.index(tuple(names))
            table[cell], table[other] = table[other], table[cell]
    return _TableRule(alternatives, tuple(table)), n_voters


def test_dictators_on_random_winner_tables_match_the_per_profile_loop():
    verdicts = set()

    @given(_table_rules())
    @settings(max_examples=40, deadline=None)
    def check(drawn):
        rule, n_voters = drawn
        found = rule_dictators(rule, n_voters)
        assert found == voting_oracle.rule_dictators(rule, n_voters)
        verdicts.add(bool(found))

    check()
    # Both rules with a dictator and rules without one were drawn.
    assert verdicts == {True, False}


def test_induced_game_matches_cell_by_cell_scoring():
    rng = random.Random(5)
    ballots = all_ballots(ALTS)
    for rule in _RULES.values():
        for n_voters in (2, 3, 4):
            cells = [
                (names, apply_rule(rule, names))
                for names in product(ALTS, repeat=n_voters)
            ]
            profile = [rng.choice(ballots) for _ in range(n_voters)]
            game, scored = induced_game(rule, profile), voting_oracle.scored_game(
                rule, profile, cells
            )
            assert game == scored
            # The whole store, down to the code dtypes, is the one
            # `Outcomes.from_records` encodes from the scored records.
            assert game.outcomes == scored.outcomes
            for name in ("codes", "label_codes", "winners"):
                assert getattr(game.outcomes, name).dtype == getattr(scored.outcomes, name).dtype


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.fractions(-2, 4, max_denominator=4), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_dictator_over_a_wider_range_has_the_same_extension(seed, extra):
    # The lemma the batched check rested on: `dictator` built over any
    # superset of a game's utility range holds exactly where it holds over
    # the range.
    rng = random.Random(seed)
    if rng.random() < 0.5:
        game = random_game(rng, size_range=(1, 3))
    else:
        rule = _RULES[rng.choice(sorted(_RULES))]
        game = induced_game(rule, [rng.choice(all_ballots(ALTS)) for _ in range(3)])
    table = game.outcomes
    values = tuple(sorted(set(table.values) | set(extra)))
    recode = np.array([values.index(v) for v in table.values])
    wide = IntensionalModel(
        game.form,
        [(None, game.form)],
        [(0, s) for s in all_profiles(game.form)],
        replace(table, values=values, codes=recode[table.codes]),
    )
    own = MaslModel(game)
    for player in game.form.players:
        assert np.array_equal(
            extension(wide, dictator(model_signature(wide), player)),
            extension(own, dictator(model_signature(own), player)),
        )


def test_five_voter_dictator_audit_memory_is_per_batch():
    tracemalloc.start()
    try:
        found = rule_dictators(DictatorRule(ALTS, 1), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == frozenset({1})
    # The payoff table is 243 cells by 6 ballots.  All 7 776 games in one
    # model would be 1.9 M worlds, whose (form, *profile) rows alone take 91 MB.
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --------------------------------------------------------------------------
# The formula/oracle bridge for strategy-proofness


@pytest.mark.parametrize(
    "rule",
    [tiebreak3(), DictatorRule(ALTS, 1), ConstantRule(ALTS, "b")],
    ids=["tiebreak", "dictator", "constant"],
)
def test_sp_bridge_full(rule):
    # audit verdict == "inner SP conjunct holds at the truthful cast profile
    # of every induced game"; the formula is rebuilt per game because each
    # game fixes its own utility range U
    formula_verdict = True
    for ballots in all_ballot_profiles(ALTS, 3):
        game = induced_game(rule, ballots)
        model = MaslModel(game)
        inner = strategy_proof_inner(Signature.from_game(game))
        truthful = tuple(b.top for b in ballots)
        if not satisfies(model, game.form.profile_from_names(truthful), inner):
            formula_verdict = False
            break
    assert formula_verdict == audit_rule(rule, 3).strategy_proof


def test_sp_bridge_sampled_plurality():
    rule = plurality3()
    profiles = list(all_ballot_profiles(ALTS, 3))[::4]
    for ballots in profiles:
        game = induced_game(rule, ballots)
        model = MaslModel(game)
        inner = strategy_proof_inner(Signature.from_game(game))
        truthful = tuple(b.top for b in ballots)
        assert satisfies(model, game.form.profile_from_names(truthful), inner)
    assert audit_rule(rule, 3).strategy_proof
