"""The per-profile manipulation search that `voting.find_manipulation`
replaced with a search over the payoff table's winner sets, kept as an
independent oracle.

It tries every (ballot profile, voter, deviation) in enumeration order and
calls `set_better` on each; the winner sets come from `apply_rule` on every
vector of cast tops, never from the payoff table.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from stratlogic.voting import (
    BallotProfile,
    Manipulation,
    VotingRule,
    all_ballots,
    apply_rule,
    set_better,
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
