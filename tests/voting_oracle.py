"""The per-profile loops that `voting` replaced with reads of the payoff
table, kept as independent oracles.

`find_manipulation` tries every (ballot profile, voter, deviation) in
enumeration order and calls `set_better` on each.  `rule_dictators` builds
one induced game per ballot profile, scored cell by cell with
`outcome_payoff`, and evaluates the `dictator` formula on its model.  The
winner sets come from `apply_rule` on every vector of cast tops, never from
the payoff table.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from stratlogic import (
    GameForm,
    MaslModel,
    OutcomeRecord,
    Outcomes,
    StrategicGame,
    extension,
    model_signature,
)
from stratlogic.properties import dictator
from stratlogic.voting import (
    BallotProfile,
    Manipulation,
    VotingRule,
    all_ballots,
    apply_rule,
    outcome_payoff,
    set_better,
    winners_label,
)


def all_ballot_profiles(
    alternatives: Sequence[str], n_voters: int
) -> Iterator[BallotProfile]:
    yield from product(all_ballots(alternatives), repeat=n_voters)


def find_manipulation(rule: VotingRule, n_voters: int) -> Manipulation | None:
    """First (profile, voter, deviation) in enumeration order where lying
    yields a set_better outcome, or None."""
    table = {
        names: apply_rule(rule, names)
        for names in product(rule.alternatives, repeat=n_voters)
    }
    ballots = all_ballots(rule.alternatives)
    for profile in all_ballot_profiles(rule.alternatives, n_voters):
        tops = tuple(b.top for b in profile)
        before = table[tops]
        for voter in range(1, n_voters + 1):
            truth = profile[voter - 1]
            for deviation in ballots:
                if deviation == truth:
                    continue
                cast = tops[: voter - 1] + (deviation.top,) + tops[voter:]
                after = table[cast]
                if set_better(after, before, truth):
                    return Manipulation(profile, voter, deviation, before, after)
    return None


def scored_game(rule: VotingRule, ballots, cells) -> StrategicGame:
    """An induced game scored cell by cell and voter by voter with
    `outcome_payoff`; `cells` lists (cast votes, winner set) pairs."""
    form = GameForm([rule.alternatives] * len(ballots))
    records = [
        OutcomeRecord(winners_label(rule, won), [outcome_payoff(won, b) for b in ballots], won)
        for _, won in cells
    ]
    return StrategicGame(form, Outcomes.from_records(records, form.n))


def rule_dictators(rule: VotingRule, n_voters: int) -> frozenset[int]:
    """Voters whose `dictator` formula holds in every induced game: one
    game, model and formula per ballot profile, candidates dropped as they
    fail."""
    cells = [
        (names, apply_rule(rule, names))
        for names in product(rule.alternatives, repeat=n_voters)
    ]
    candidates = set(range(1, n_voters + 1))
    for profile in all_ballot_profiles(rule.alternatives, n_voters):
        if not candidates:
            break
        model = MaslModel(scored_game(rule, profile, cells))
        sig = model_signature(model)
        for voter in sorted(candidates):
            if not extension(model, dictator(sig, voter)).all():
                candidates.discard(voter)
    return frozenset(candidates)
