"""Finite strategic games: forms, outcomes, profiles, and solution concepts."""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

Profile = tuple[int, ...]
"""One strategy index per player, player 1 first (indices are 0-based)."""

Coalition = frozenset[int]
"""A set of player numbers (players are numbered from 1)."""


class GameError(ValueError):
    """Raised when game data violates a structural constraint."""


def to_fraction(value: int | str | float | Fraction) -> Fraction:
    """Coerce a utility value to an exact rational."""
    if isinstance(value, bool):
        raise GameError(f"not a utility value: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        # Floats travel through their decimal rendering so 0.5 means 1/2,
        # not the nearest binary fraction.
        return Fraction(str(value))
    raise GameError(f"not a utility value: {value!r}")


_STRATEGY_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class GameForm:
    """A game form: n >= 2 players, one finite non-empty strategy set each.

    Strategy names are identifiers so that profile keys and the concrete
    formula syntax stay unambiguous.
    """

    strategy_sets: tuple[tuple[str, ...], ...]

    def __init__(self, strategy_sets: Iterable[Iterable[str]]):
        sets = tuple(tuple(names) for names in strategy_sets)
        if len(sets) < 2:
            raise GameError("a game form needs at least two players")
        for pos, names in enumerate(sets):
            if not names:
                raise GameError(f"player {pos + 1} has an empty strategy set")
            if len(set(names)) != len(names):
                raise GameError(f"player {pos + 1} has duplicate strategy names")
            for name in names:
                if not _STRATEGY_NAME.match(name):
                    raise GameError(f"bad strategy name {name!r}")
        object.__setattr__(self, "strategy_sets", sets)

    @property
    def n(self) -> int:
        return len(self.strategy_sets)

    @property
    def players(self) -> range:
        """Player numbers, starting from 1."""
        return range(1, self.n + 1)

    def strategies(self, player: int) -> tuple[str, ...]:
        self._check_player(player)
        return self.strategy_sets[player - 1]

    def _check_player(self, player: int) -> None:
        if not 1 <= player <= self.n:
            raise GameError(f"no player {player} in a {self.n}-player game")

    def strategy_index(self, player: int, name: str) -> int:
        names = self.strategies(player)
        try:
            return names.index(name)
        except ValueError:
            raise GameError(
                f"player {player} has no strategy named {name!r}"
            ) from None

    def profile_count(self) -> int:
        count = 1
        for names in self.strategy_sets:
            count *= len(names)
        return count

    def validate_profile(self, s: Profile) -> None:
        if len(s) != self.n:
            raise GameError(f"profile {s!r} has wrong length for {self.n} players")
        for pos, idx in enumerate(s):
            if not 0 <= idx < len(self.strategy_sets[pos]):
                raise GameError(f"profile {s!r} is out of range at player {pos + 1}")

    def names(self, s: Profile) -> tuple[str, ...]:
        self.validate_profile(s)
        return tuple(self.strategy_sets[pos][idx] for pos, idx in enumerate(s))

    def profile_key(self, s: Profile) -> str:
        """Render a profile as comma-joined strategy names, e.g. ``"c,d"``."""
        return ",".join(self.names(s))

    def profile_from_names(self, names: Sequence[str]) -> Profile:
        if len(names) != self.n:
            raise GameError(f"expected {self.n} strategy names, got {len(names)}")
        return tuple(
            self.strategy_index(player, name)
            for player, name in zip(self.players, names)
        )

    def profile_from_key(self, key: str) -> Profile:
        return self.profile_from_names(key.split(","))


def all_profiles(form: GameForm) -> list[Profile]:
    """Every strategy profile, lexicographically with player 1 varying slowest."""
    ranges = [range(len(names)) for names in form.strategy_sets]
    return list(product(*ranges))


def combine(
    form: GameForm,
    coalition: Iterable[int],
    coalition_part: Mapping[int, str],
    rest_part: Mapping[int, str],
) -> Profile:
    """Assemble a profile from a coalition's choices and the complement's.

    Both parts map player numbers to strategy names; together they must cover
    every player exactly once, with ``coalition_part`` covering ``coalition``.
    """
    members = frozenset(coalition)
    for player in members:
        form._check_player(player)
    if set(coalition_part) != members:
        raise GameError("coalition part does not cover exactly the coalition")
    rest = frozenset(form.players) - members
    if set(rest_part) != rest:
        raise GameError("rest part does not cover exactly the complement")
    names = []
    for player in form.players:
        source = coalition_part if player in members else rest_part
        names.append(source[player])
    return form.profile_from_names(names)


@dataclass(frozen=True)
class OutcomeRecord:
    """What the valuation can see at a profile: a label, utilities, and
    optionally the set of winning alternatives."""

    label: str
    utils: tuple[Fraction, ...]
    winners: frozenset[str] | None = None

    def __init__(
        self,
        label: str,
        utils: Iterable[int | str | float | Fraction],
        winners: Iterable[str] | None = None,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "utils", tuple(to_fraction(u) for u in utils))
        if winners is not None:
            winners = frozenset(winners)
            if not winners:
                raise GameError("winner set, when present, must be non-empty")
        object.__setattr__(self, "winners", winners)


def _code_dtype(count: int) -> np.dtype:
    """The smallest unsigned integer dtype that indexes a table of `count`
    entries."""
    return np.min_scalar_type(max(count - 1, 0))


@dataclass(frozen=True, eq=False)
class Outcomes:
    """A columnar, exact outcome store: one row per world.

    Utilities are codes into `values`, the utility range ascending and
    without repeats, so code order is value order and comparing codes is
    exact; `Fraction`s live only in the range table.  Labels are codes into
    `labels`.  `winners` marks, per row, which of `alternatives` win there;
    both are None when no row carries winner data, and a row without a
    winner set is all False.
    """

    values: tuple[Fraction, ...]
    codes: np.ndarray  # (rows, players) indices into `values`
    labels: tuple[str, ...]
    label_codes: np.ndarray  # (rows,) indices into `labels`
    alternatives: tuple[str, ...] | None = None
    winners: np.ndarray | None = None  # (rows, len(alternatives)) bool

    @classmethod
    def from_records(cls, records: Sequence[OutcomeRecord], n: int) -> Outcomes:
        """Encode records of `n` utilities each.  The range table holds
        exactly the values that occur, and the alternatives exactly those
        that win somewhere, sorted."""
        # Codes in order of first occurrence, renumbered by value below.
        # Keyed by (numerator, denominator): hashing a Fraction costs far more.
        first: dict[tuple[int, int], int] = {}
        found: list[Fraction] = []
        raw: list[int] = []
        for rec in records:
            if len(rec.utils) != n:
                raise GameError(f"outcome {rec.label!r} has wrong utility count for {n} players")
            for u in rec.utils:
                key = (u.numerator, u.denominator)
                code = first.get(key)
                if code is None:
                    code = first[key] = len(found)
                    found.append(u)
                raw.append(code)
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = np.empty(len(found), dtype=_code_dtype(len(found)))
        rank[order] = np.arange(len(found))
        codes = rank[np.array(raw, dtype=rank.dtype)].reshape(-1, n)
        labels: dict[str, int] = {}
        label_codes = [labels.setdefault(rec.label, len(labels)) for rec in records]
        sets: dict[frozenset[str] | None, int] = {}
        set_codes = [sets.setdefault(rec.winners, len(sets)) for rec in records]
        alternatives = winners = None
        if any(won is not None for won in sets):
            alternatives = tuple(sorted(frozenset().union(*filter(None, sets))))
            rows = [[won is not None and a in won for a in alternatives] for won in sets]
            winners = np.array(rows, dtype=bool)[set_codes]
        return cls(
            tuple(found[i] for i in order),
            codes,
            tuple(labels),
            np.array(label_codes, dtype=_code_dtype(len(labels))),
            alternatives,
            winners,
        )

    def __len__(self) -> int:
        return len(self.codes)

    def record(self, row: int) -> OutcomeRecord:
        """One row as an `OutcomeRecord`."""
        winners = None
        if self.winners is not None and self.winners[row].any():
            winners = [a for a, won in zip(self.alternatives, self.winners[row]) if won]
        return OutcomeRecord(
            self.labels[self.label_codes[row]],
            [self.values[code] for code in self.codes[row]],
            winners,
        )


@dataclass(frozen=True)
class StrategicGame:
    """A game form plus a total outcome assignment.

    ``records`` is aligned with ``all_profiles(form)``.
    """

    form: GameForm
    records: tuple[OutcomeRecord, ...]

    def __post_init__(self) -> None:
        expected = self.form.profile_count()
        if len(self.records) != expected:
            raise GameError(
                f"need one outcome per profile: got {len(self.records)}, "
                f"expected {expected}"
            )
        for rec in self.records:
            if len(rec.utils) != self.form.n:
                raise GameError(
                    f"outcome {rec.label!r} has {len(rec.utils)} utilities "
                    f"for {self.form.n} players"
                )

    @classmethod
    def from_outcomes(
        cls, form: GameForm, outcomes: Mapping[Profile, OutcomeRecord]
    ) -> StrategicGame:
        states = all_profiles(form)
        missing = [s for s in states if s not in outcomes]
        if missing:
            raise GameError(f"no outcome for profile {form.profile_key(missing[0])!r}")
        if len(outcomes) != len(states):
            raise GameError("outcome table mentions profiles outside the form")
        return cls(form, tuple(outcomes[s] for s in states))

    @classmethod
    def from_named_outcomes(
        cls, form: GameForm, outcomes: Mapping[tuple[str, ...], OutcomeRecord]
    ) -> StrategicGame:
        table = {
            form.profile_from_names(names): rec for names, rec in outcomes.items()
        }
        return cls.from_outcomes(form, table)

    def profile_index(self, s: Profile) -> int:
        self.form.validate_profile(s)
        idx = 0
        for pos, value in enumerate(s):
            idx = idx * len(self.form.strategy_sets[pos]) + value
        return idx

    def outcome(self, s: Profile) -> OutcomeRecord:
        return self.records[self.profile_index(s)]

    def util(self, s: Profile, player: int) -> Fraction:
        self.form._check_player(player)
        return self.outcome(s).utils[player - 1]

    @cached_property
    def outcomes(self) -> Outcomes:
        """The records as one columnar store, in `all_profiles` order."""
        return Outcomes.from_records(self.records, self.form.n)


def _switches(game: StrategicGame, s: Profile, player: int) -> list[Profile]:
    pos = player - 1
    return [
        s[:pos] + (alt,) + s[pos + 1 :]
        for alt in range(len(game.form.strategy_sets[pos]))
    ]


def is_best_response(game: StrategicGame, s: Profile, player: int) -> bool:
    """True iff no own-strategy switch strictly improves `player` at `s`."""
    game.form._check_player(player)
    here = game.util(s, player)
    return all(game.util(t, player) <= here for t in _switches(game, s, player))


def nash_set(game: StrategicGame) -> frozenset[Profile]:
    """All pure Nash equilibria, by exhaustive best-response checking."""
    return frozenset(
        s
        for s in all_profiles(game.form)
        if all(is_best_response(game, s, i) for i in game.form.players)
    )


def weakly_dominant(game: StrategicGame, player: int, name: str) -> bool:
    """True iff `name` is weakly dominant for `player`: against every opponent
    block it does at least as well as every alternative."""
    a = game.form.strategy_index(player, name)
    pos = player - 1
    others = [range(len(names)) for names in game.form.strategy_sets]
    del others[pos]
    for rest in product(*others):
        s_a = rest[:pos] + (a,) + rest[pos:]
        for b in range(len(game.form.strategy_sets[pos])):
            s_b = rest[:pos] + (b,) + rest[pos:]
            if game.util(s_b, player) > game.util(s_a, player):
                return False
    return True
