"""Voting rules on ranked ballots, the strategic games they induce, and an
exhaustive manipulability audit.

Outcomes of a vote are non-empty sets of alternatives.  A voter compares
outcome sets two ways, which the audit keeps carefully apart: the
qualitative order `set_better` (every element of one set at least as good
as every element of the other, somewhere strictly), used as the oracle for
manipulations, and the exact mean-rank score `outcome_payoff`, used to put
numbers into induced games.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .games import GameForm, Outcomes, StrategicGame, _code_dtype


class VotingError(ValueError):
    """Raised when ballots or rule data are malformed."""


@dataclass(frozen=True)
class Ballot:
    """A strict ranking of the alternatives, best first."""

    order: tuple[str, ...]

    def __init__(self, order: Iterable[str]):
        order = tuple(order)
        if not order:
            raise VotingError("a ballot cannot be empty")
        if len(set(order)) != len(order):
            raise VotingError(f"ballot {order!r} ranks an alternative twice")
        object.__setattr__(self, "order", order)

    @classmethod
    def parse(cls, text: str, alternatives: Sequence[str]) -> Ballot:
        """Read "abc" (single-character alternatives) or "a,b,c"."""
        if "," in text:
            parts = text.split(",")
        elif all(len(a) == 1 for a in alternatives):
            parts = list(text)
        else:
            raise VotingError(
                f"ballot {text!r} needs commas with multi-character alternatives"
            )
        ballot = cls(parts)
        if set(ballot.order) != set(alternatives) or len(ballot.order) != len(
            set(alternatives)
        ):
            raise VotingError(
                f"ballot {text!r} is not a permutation of the alternatives"
            )
        return ballot

    @property
    def top(self) -> str:
        return self.order[0]

    def position(self, alternative: str) -> int:
        """Rank from the top, 0 being best."""
        try:
            return self.order.index(alternative)
        except ValueError:
            raise VotingError(
                f"ballot {self} does not rank {alternative!r}"
            ) from None

    def prefers(self, x: str, y: str) -> bool:
        """Strict preference of x over y."""
        return self.position(x) < self.position(y)

    def __str__(self) -> str:
        if all(len(a) == 1 for a in self.order):
            return "".join(self.order)
        return ",".join(self.order)


BallotProfile = tuple[Ballot, ...]


def set_better(xs: Iterable[str], ys: Iterable[str], ballot: Ballot) -> bool:
    """Weak-dominance comparison of outcome sets under one ballot: every
    cross pair is equal or improves, and at least one strictly improves."""
    xset, yset = frozenset(xs), frozenset(ys)
    if not xset or not yset:
        raise VotingError("cannot compare empty outcome sets")
    strict = False
    for x in xset:
        for y in yset:
            if x == y:
                continue
            if not ballot.prefers(x, y):
                return False
            strict = True
    return strict


def outcome_payoff(xs: Iterable[str], ballot: Ballot) -> Fraction:
    """Mean rank-score of an outcome set: |A|-1 points for the ballot's top
    alternative down to 0 for its last, averaged over the set."""
    xset = frozenset(xs)
    if not xset:
        raise VotingError("cannot score an empty outcome set")
    best = len(ballot.order) - 1
    total = sum(best - ballot.position(x) for x in xset)
    return Fraction(total, len(xset))


# --------------------------------------------------------------------------
# rules


class VotingRule:
    """Maps a vector of cast votes (top choices) to a non-empty winner set."""

    alternatives: tuple[str, ...]

    def winners(self, tops: Sequence[str]) -> frozenset[str]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _check_tops(self, tops: Sequence[str]) -> None:
        for name in tops:
            if name not in self.alternatives:
                raise VotingError(f"vote for unknown alternative {name!r}")


def _check_alternatives(alternatives: tuple[str, ...]) -> None:
    if not alternatives:
        raise VotingError("need at least one alternative")
    if len(set(alternatives)) != len(alternatives):
        raise VotingError("alternatives must be distinct")


@dataclass(frozen=True)
class Plurality(VotingRule):
    alternatives: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_alternatives(self.alternatives)

    def winners(self, tops: Sequence[str]) -> frozenset[str]:
        self._check_tops(tops)
        counts = {a: 0 for a in self.alternatives}
        for name in tops:
            counts[name] += 1
        most = max(counts.values())
        return frozenset(a for a, c in counts.items() if c == most)

    def describe(self) -> str:
        return "plurality"


@dataclass(frozen=True)
class AbsoluteMajority(VotingRule):
    """An alternative with more than half the votes wins; otherwise everyone
    ties."""

    alternatives: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_alternatives(self.alternatives)

    def winners(self, tops: Sequence[str]) -> frozenset[str]:
        self._check_tops(tops)
        for a in self.alternatives:
            if 2 * sum(1 for name in tops if name == a) > len(tops):
                return frozenset({a})
        return frozenset(self.alternatives)

    def describe(self) -> str:
        return "absolute_majority"


@dataclass(frozen=True)
class DictatorRule(VotingRule):
    alternatives: tuple[str, ...]
    voter: int

    def __post_init__(self) -> None:
        _check_alternatives(self.alternatives)
        if self.voter < 1:
            raise VotingError("voter numbers start at 1")

    def winners(self, tops: Sequence[str]) -> frozenset[str]:
        self._check_tops(tops)
        if self.voter > len(tops):
            raise VotingError(f"no voter {self.voter} among {len(tops)} votes")
        return frozenset({tops[self.voter - 1]})

    def describe(self) -> str:
        return f"dictator:{self.voter}"


@dataclass(frozen=True)
class ConstantRule(VotingRule):
    alternatives: tuple[str, ...]
    choice: str

    def __post_init__(self) -> None:
        _check_alternatives(self.alternatives)
        if self.choice not in self.alternatives:
            raise VotingError(f"constant winner {self.choice!r} is not an alternative")

    def winners(self, tops: Sequence[str]) -> frozenset[str]:
        self._check_tops(tops)
        return frozenset({self.choice})

    def describe(self) -> str:
        return f"constant:{self.choice}"


@dataclass(frozen=True)
class ResoluteWrap(VotingRule):
    """Break a base rule's ties in favour of a fixed ranking."""

    base: VotingRule
    tiebreak: Ballot

    def __post_init__(self) -> None:
        if set(self.tiebreak.order) != set(self.base.alternatives):
            raise VotingError("tie-break ballot must rank exactly the alternatives")

    @property
    def alternatives(self) -> tuple[str, ...]:  # type: ignore[override]
        return self.base.alternatives

    def winners(self, tops: Sequence[str]) -> frozenset[str]:
        tied = self.base.winners(tops)
        return frozenset({min(tied, key=self.tiebreak.position)})

    def describe(self) -> str:
        return f"{self.base.describe()}+tiebreak:{self.tiebreak}"


def apply_rule(
    rule: VotingRule, votes: Sequence[Ballot] | Sequence[str]
) -> frozenset[str]:
    """Winners for cast votes, given either full ballots or top choices."""
    if votes and isinstance(votes[0], Ballot):
        tops = [b.top for b in votes]
    else:
        tops = list(votes)
    winners = rule.winners(tops)
    if not winners or not winners <= set(rule.alternatives):
        raise VotingError(f"rule returned a bad winner set {winners!r}")
    return winners


def winners_label(rule: VotingRule, winners: frozenset[str]) -> str:
    """Canonical outcome label: winning alternatives in declared order."""
    return ",".join(a for a in rule.alternatives if a in winners)


# --------------------------------------------------------------------------
# ballot enumeration and induced games


def all_ballots(alternatives: Sequence[str]) -> list[Ballot]:
    return [Ballot(p) for p in permutations(alternatives)]


class _PayoffTable(NamedTuple):
    """What every game a rule induces for a number of voters shares: the
    form, the winner set each cell of cast votes elects with its label and
    winner row, and each winner set's payoff under each ballot, as a code
    into the sorted payoff range.  This is the rule's one table: the games,
    the dictator check and the manipulation search all read it."""

    form: GameForm
    ballots: dict[Ballot, int]  # all_ballots order
    cell_sets: np.ndarray  # (cells,) winner set index, all_profiles order
    sets: tuple[frozenset[str], ...]  # winner sets, in order of first election
    labels: tuple[str, ...]  # per winner set
    alternatives: tuple[str, ...]  # every winning alternative, sorted
    winners: np.ndarray  # (sets, alternatives) bool
    values: tuple[Fraction, ...]  # every payoff, ascending, no repeats
    codes: np.ndarray  # (sets, ballots) index into `values`


@lru_cache(maxsize=None)
def _payoff_table(rule: VotingRule, n_voters: int) -> _PayoffTable:
    form = GameForm([rule.alternatives] * n_voters)
    ballots = all_ballots(rule.alternatives)
    index: dict[frozenset[str], int] = {}
    cells = [
        index.setdefault(apply_rule(rule, names), len(index))
        for names in product(rule.alternatives, repeat=n_voters)
    ]
    # Labels are one per set, so set codes are label codes; every induced
    # game's store shares this array.
    cell_sets = np.array(cells, dtype=_code_dtype(len(index)))
    cell_sets.flags.writeable = False
    alternatives = tuple(sorted(frozenset().union(*index)))
    payoffs = [[outcome_payoff(won, ballot) for ballot in ballots] for won in index]
    values = tuple(sorted(set().union(*payoffs)))
    return _PayoffTable(
        form=form,
        ballots={ballot: i for i, ballot in enumerate(ballots)},
        cell_sets=cell_sets,
        sets=tuple(index),
        labels=tuple(winners_label(rule, won) for won in index),
        alternatives=alternatives,
        winners=np.array([[a in won for a in alternatives] for won in index]),
        values=values,
        codes=np.array(
            [[values.index(p) for p in row] for row in payoffs],
            dtype=_code_dtype(len(values)),
        ),
    )


def induced_game(rule: VotingRule, true_ballots: Sequence[Ballot]) -> StrategicGame:
    """The voting game: every voter picks an alternative to cast, utilities
    score the winner set against each voter's true ballot."""
    table = _payoff_table(rule, len(true_ballots))
    for ballot in true_ballots:
        if ballot not in table.ballots:
            raise VotingError(f"ballot {ballot} does not rank the alternatives")
    columns = [table.ballots[ballot] for ballot in true_ballots]
    # Keep only the payoffs this game pays, so its range is its own.
    used, codes = np.unique(table.codes[:, columns], return_inverse=True)
    codes = codes.reshape(len(table.labels), len(columns)).astype(_code_dtype(len(used)))
    outcomes = Outcomes(
        tuple(table.values[code] for code in used),
        codes[table.cell_sets],
        table.labels,
        table.cell_sets,
        table.alternatives,
        table.winners[table.cell_sets],
    )
    return StrategicGame(table.form, outcomes)


# --------------------------------------------------------------------------
# audit


@dataclass(frozen=True)
class Manipulation:
    """A successful strategic lie: `voter` swaps their ballot in `profile`
    for `deviation` and prefers the new outcome on their true ballot."""

    profile: BallotProfile
    voter: int
    deviation: Ballot
    before: frozenset[str]
    after: frozenset[str]


@dataclass(frozen=True)
class AuditReport:
    rule: str
    resolute: bool
    strategy_proof: bool
    manipulation: Manipulation | None
    non_imposed: bool
    distinct_winner_sets: int
    dictators: frozenset[int]
    notes: tuple[str, ...] = ()

    @property
    def gs_consistent(self) -> bool:
        """No rule is simultaneously resolute, strategy-proof, non-imposed,
        and dictator-free."""
        return not (
            self.resolute and self.strategy_proof and self.non_imposed
        ) or bool(self.dictators)


def find_manipulation(rule: VotingRule, n_voters: int) -> Manipulation | None:
    """The first (ballot profile, voter, deviation), profiles in `product`
    order, where lying elects a winner set that is `set_better` on the
    voter's true ballot; or None.

    It is read off the payoff table: `gain[b, x, y]` says whether ballot b
    prefers winner set x to y, and per voter and cast top one array over all
    profiles reads gain[own ballot, set after, set before].  The least
    (profile, voter, top) with a gain gives the witness that a loop over
    every (profile, voter, deviation) meets first: a deviation acts only
    through its top; keeping one's own top changes nothing, and
    `set_better(X, X)` is false; `all_ballots` groups ballots by top in
    declared order, so the first deviation is the first ballot of the least
    top; and C order over the (ballots,)*n array is `product` order, voter 1
    slowest."""
    table = _payoff_table(rule, n_voters)
    ballots, sets = list(table.ballots), table.sets
    tops = np.array([rule.alternatives.index(b.top) for b in ballots])
    gain = np.array([[[set_better(x, y, b) for y in sets] for x in sets] for b in ballots])
    grid = table.cell_sets.reshape((len(rule.alternatives),) * n_voters)
    own = np.ix_(*[np.arange(len(ballots))] * n_voters)
    cast = [tops[axis] for axis in own]
    before = grid[tuple(cast)]
    witness = None
    for voter, top in product(range(n_voters), range(len(rule.alternatives))):
        moved = cast[:voter] + [np.full((1,) * n_voters, top)] + cast[voter + 1 :]
        hits = gain[own[voter], grid[tuple(moved)], before].reshape(-1)
        row = int(hits.argmax())
        if hits[row] and (witness is None or row < witness[0]):
            witness = (row, voter, top)
    if witness is None:
        return None
    row, voter, top = witness
    profile = tuple(ballots[b] for b in np.unravel_index(row, before.shape))
    deviation = ballots[int(np.argmax(tops == top))]
    deviated = profile[:voter] + (deviation,) + profile[voter + 1 :]
    return Manipulation(
        profile, voter + 1, deviation, apply_rule(rule, profile), apply_rule(rule, deviated)
    )


def rule_dictators(rule: VotingRule, n_voters: int) -> frozenset[int]:
    """Voters whose dictatorship formula holds in every induced game.

    It is read off the payoff table.  In one induced game, `dictator(i)`
    holds iff some value v has top <= v <= secure, where top is the most any
    other voter is ever paid and secure is the least payoff, over profiles,
    of voter i's best switch.  Both are payoffs of the game, so such a v
    exists iff top <= secure.  A voter's payoff at a cell depends only on
    that voter's own ballot, and over all ballot profiles voter i's ballot
    and another voter's range over every ballot independently.  So the
    formula holds in every induced game iff the most paid at any cell under
    any ballot is at most the least, over ballots and the other voters'
    casts, of the most voter i can reach by casting: on the
    (alternatives,)*n + (ballots,) grid of payoff codes, `paid.max() <=
    grid.max(axis=i - 1).min()`.  Codes index the sorted payoff range, so
    they compare as the payoffs do.
    """
    if n_voters < 2:
        raise VotingError("a dictator needs at least two voters")
    table = _payoff_table(rule, n_voters)
    paid = table.codes[table.cell_sets]  # (cells, ballots)
    grid = paid.reshape((len(rule.alternatives),) * n_voters + (len(table.ballots),))
    top = paid.max()
    return frozenset(
        voter
        for voter in range(1, n_voters + 1)
        if top <= grid.max(axis=voter - 1).min()
    )


def audit_rule(rule: VotingRule, n_voters: int) -> AuditReport:
    """Brute-force audit over all full-ballot profiles."""
    if n_voters < 2:
        raise VotingError("the audit needs at least two voters")
    table = _payoff_table(rule, n_voters)
    notes: list[str] = []
    if len(rule.alternatives) < 3:
        notes.append(
            "fewer than three alternatives: non-imposition is counted over "
            "winner sets only"
        )
    manipulation = find_manipulation(rule, n_voters)
    return AuditReport(
        rule=rule.describe(),
        resolute=all(len(won) == 1 for won in table.sets),
        strategy_proof=manipulation is None,
        manipulation=manipulation,
        non_imposed=len(table.sets) >= 3,
        distinct_winner_sets=len(table.sets),
        dictators=rule_dictators(rule, n_voters),
        notes=tuple(notes),
    )
