"""Finite strategic games: forms, profiles, the outcome store, and best
responses."""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

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
        if not math.isfinite(value):
            raise GameError(f"not a finite utility value: {value!r}")
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
    # Per player, each strategy name's index; built once per form.
    _index: tuple[dict[str, int], ...] = field(init=False, repr=False, compare=False)

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
        index = tuple({name: i for i, name in enumerate(names)} for names in sets)
        object.__setattr__(self, "_index", index)

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
        self._check_player(player)
        index = self._index[player - 1].get(name)
        if index is None:
            raise GameError(f"player {player} has no strategy named {name!r}")
        return index

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

    def row_of_key(self, key: str) -> int:
        """The position of profile `key` in `all_profiles` order, a
        mixed-radix number with one digit per player; raises like
        `profile_from_key`."""
        names = key.split(",")
        if len(names) != len(self._index):
            raise GameError(f"expected {self.n} strategy names, got {len(names)}")
        row = 0
        try:
            for index, name in zip(self._index, names):
                row = row * len(index) + index[name]
        except KeyError:
            player = next(p for p, name in enumerate(names, 1) if name not in self._index[p - 1])
            raise GameError(
                f"player {player} has no strategy named {names[player - 1]!r}"
            ) from None
        return row


def all_profiles(form: GameForm) -> list[Profile]:
    """Every strategy profile, lexicographically with player 1 varying slowest."""
    ranges = [range(len(names)) for names in form.strategy_sets]
    return list(product(*ranges))


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
        """Encode records of `n` utilities each, one row per record; a row's
        name in error messages is its label."""
        rows = (
            (row, rec.label, rec.label, rec.utils, rec.winners)
            for row, rec in enumerate(records)
        )
        return cls.from_rows(rows, n, len(records))

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[int, str, str, Sequence, Iterable[str] | None]],
        n: int,
        count: int,
        row_key: Callable[[int], str] = str,
    ) -> Outcomes:
        """Encode `count` rows, each given once in any order, as ``(row,
        name, label, utilities, winners or None)``.

        Each distinct utility spelling, keyed by type and value so that
        `True` is never taken for `1`, goes through `to_fraction` once, when
        first seen; the codes are then renumbered by exact value, so ``1``,
        ``1.0`` and ``"2/2"`` share one.  Labels are coded in order of first
        occurrence by row and the alternatives are those that win somewhere,
        sorted, so the store is canonical.  Errors name a row ``outcome
        <name>`` and come in the order the rows are given; then the first
        row not given is reported as the profile `row_key(row)`.
        """
        first: dict[tuple[type, object], int] = {}  # spelling -> raw code
        found: list[Fraction] = []  # raw code -> value
        labels: dict[str, int] = {}
        sets: dict[tuple[str, ...] | None, int] = {}
        order: list[int] = []
        raw: list[int] = []
        label_raw: list[int] = []
        set_raw: list[int] = []
        for row, name, label, utils, winners in rows:
            if len(utils) != n:
                raise GameError(f"outcome {name!r} has wrong utility count for {n} players")
            for u in utils:
                key = (u.__class__, u)
                try:
                    code = first.get(key)
                except TypeError:  # unhashable, so not a utility
                    code = None
                if code is None:
                    try:
                        found.append(to_fraction(u))
                    except GameError as exc:
                        raise GameError(f"outcome {name!r}: {exc}") from None
                    code = first[key] = len(found) - 1
                raw.append(code)
            key = None if winners is None else tuple(winners)
            if key == ():
                raise GameError(f"outcome {name!r}: winner set, when present, must be non-empty")
            set_raw.append(sets.setdefault(key, len(sets)))
            label_raw.append(labels.setdefault(label, len(labels)))
            order.append(row)
        placed = np.array(order, dtype=np.intp)
        given = np.zeros(count, dtype=bool)
        given[placed] = True
        if not given.all():
            raise GameError(f"no outcome for profile {row_key(int(given.argmin()))!r}")

        def in_row_order(arrival) -> np.ndarray:
            out = np.empty((count, *arrival.shape[1:]), dtype=arrival.dtype)
            out[placed] = arrival
            return out

        values = sorted(set(found))
        rank = {v: code for code, v in enumerate(values)}
        code_table = np.array([rank[v] for v in found], dtype=_code_dtype(len(values)))
        codes = in_row_order(code_table[np.array(raw, dtype=np.intp).reshape(-1, n)])
        label_rows = in_row_order(np.array(label_raw, dtype=np.intp))
        _, seen_at = np.unique(label_rows, return_index=True)
        by_first = np.argsort(seen_at)
        relabel = np.empty(len(labels), dtype=_code_dtype(len(labels)))
        relabel[by_first] = np.arange(len(labels))
        label_names = list(labels)
        won = [None if key is None else frozenset(key) for key in sets]
        alternatives = winners = None
        if any(w is not None for w in won):
            alternatives = tuple(sorted(frozenset().union(*filter(None, won))))
            table = [[w is not None and a in w for a in alternatives] for w in won]
            winners = in_row_order(np.array(table, dtype=bool)[set_raw])
        return cls(
            tuple(values),
            codes,
            tuple(label_names[k] for k in by_first),
            relabel[label_rows],
            alternatives,
            winners,
        )

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        """Field-wise equality.  The encoding is canonical (values
        ascending, labels in order of first occurrence, alternatives
        sorted), so equal stores are exactly those with equal records.
        Stores hold arrays and are not hashable."""
        if not isinstance(other, Outcomes):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

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
    """A game form plus its outcomes: one row per profile, in
    `all_profiles` order.  `outcome(s)` is the record view of one row."""

    form: GameForm
    outcomes: Outcomes

    def __post_init__(self) -> None:
        expected = self.form.profile_count()
        if len(self.outcomes) != expected:
            raise GameError(
                f"need one outcome per profile: got {len(self.outcomes)}, "
                f"expected {expected}"
            )
        width = self.outcomes.codes.shape[1]
        if width != self.form.n:
            label = self.outcomes.labels[self.outcomes.label_codes[0]]
            raise GameError(
                f"outcome {label!r} has {width} utilities for {self.form.n} players"
            )

    def profile_index(self, s: Profile) -> int:
        self.form.validate_profile(s)
        idx = 0
        for pos, value in enumerate(s):
            idx = idx * len(self.form.strategy_sets[pos]) + value
        return idx

    def outcome(self, s: Profile) -> OutcomeRecord:
        return self.outcomes.record(self.profile_index(s))


def best_response(game: StrategicGame, player: int) -> np.ndarray:
    """Where `player` best-responds: a bool array over the profile grid, one
    axis per player, True at the profiles where no switch of the player's
    own strategy raises their utility.  Exact, because utility codes keep
    the order of the values.

    Pure Nash equilibria are the AND of these grids over the players, and
    strategy `a` is weakly dominant for `player` iff
    ``best_response(game, player).take(a, axis=player - 1).all()``.
    """
    game.form._check_player(player)
    shape = tuple(len(names) for names in game.form.strategy_sets)
    codes = game.outcomes.codes[:, player - 1].reshape(shape)
    return codes == codes.max(axis=player - 1, keepdims=True)
