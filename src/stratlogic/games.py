"""Finite strategic games: forms, outcomes, profiles, and solution concepts."""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

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


def outcome_vocabulary(
    records: Sequence[OutcomeRecord],
) -> tuple[tuple[Fraction, ...], tuple[str, ...] | None]:
    """The utility values occurring in the records, ascending and without
    repeats, and the alternatives that win somewhere, sorted (None when no
    record carries winner data)."""
    # Keyed by (numerator, denominator): hashing a Fraction costs far more.
    values = {(u.numerator, u.denominator): u for rec in records for u in rec.utils}
    winners = [rec.winners for rec in records if rec.winners is not None]
    alternatives = tuple(sorted(frozenset().union(*winners))) if winners else None
    return tuple(sorted(values.values())), alternatives


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
