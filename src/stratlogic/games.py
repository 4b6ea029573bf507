"""Finite strategic games: forms, profiles, the outcome store, and best
responses."""
from __future__ import annotations

import math
import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from fractions import Fraction
from itertools import chain, islice, product
from operator import attrgetter
from typing import Iterable, Sequence

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


class _Frozen:
    """Base of the classes `_frozen` makes: the guards and the repr of a
    frozen dataclass.  Internal code stores through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = (f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"


def _frozen(cls: type, slots: bool = False, blank: tuple[str, ...] = ()) -> type:
    """Make `cls`, a `_Frozen` subclass, behave as ``@dataclass(frozen=True,
    slots=slots)`` would, for less import time: `dataclass` only collects
    the fields, and one `exec` compiles what the class neither writes nor
    inherits.  ``__init__`` sets each field (an init-less one to its
    default) and each slot in `blank` to None, through the slot's own setter
    or, without slots, ``object.__setattr__``, then calls ``__post_init__``.
    ``__eq__`` and ``__hash__`` take the tuple of the compare fields."""
    own_init = "__init__" in cls.__dict__
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    every = fields(cls)
    scope = {"_set": object.__setattr__, **{f"_d_{f.name}": f.default for f in every}}
    params, stores = ["self"], [(name, "None") for name in blank]
    for f in every:
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=_d_{f.name}")
        if f.init or f.default is not MISSING:
            stores.append((f.name, f.name if f.init else f"_d_{f.name}"))
    if slots:
        scope.update({f"_set_{name}": getattr(cls, name).__set__ for name, _ in stores})
    body = [f"_set_{n}(self, {v})" if slots else f"_set(self, {n!r}, {v})" for n, v in stores]
    body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    code = [] if own_init else [f"def __init__({', '.join(params)}):\n " + "\n ".join(body)]
    compared = "".join(f"self.{f.name}," for f in every if f.compare)
    if cls.__eq__ is object.__eq__:
        code.append(f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
                    f"  return ({compared}) == ({compared.replace('self.', 'other.')})\n return NotImplemented")
    if cls.__hash__ is object.__hash__:
        code.append(f"def __hash__(self):\n return hash(({compared}))")
    exec("\n".join(code), scope)
    for name in ("__init__", "__eq__", "__hash__"):
        if name in scope:
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])
    return cls


_STRATEGY_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@_frozen
class GameForm(_Frozen):
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


def all_profiles(form: GameForm) -> list[Profile]:
    """Every strategy profile, lexicographically with player 1 varying slowest."""
    ranges = [range(len(names)) for names in form.strategy_sets]
    return list(product(*ranges))


@_frozen
class OutcomeRecord(_Frozen):
    """What the valuation can see at a profile: a label, utilities, and
    optionally the set of winning alternatives."""

    label: str
    utils: tuple[Fraction, ...]
    winners: frozenset[str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "utils", tuple(to_fraction(u) for u in self.utils))
        if self.winners is not None:
            object.__setattr__(self, "winners", frozenset(self.winners))
            if not self.winners:
                raise GameError("winner set, when present, must be non-empty")


def _code_dtype(count: int) -> np.dtype:
    """The smallest unsigned integer dtype that indexes a table of `count`
    entries."""
    return np.min_scalar_type(max(count - 1, 0))


def _first_unhashable(keys: list) -> int:
    for at, key in enumerate(keys):
        try:
            hash(key)
        except TypeError:
            return at
    raise AssertionError("every key is hashable")


def _check_row(name: str, utils: Sequence, winners: Iterable[str] | None, n: int) -> None:
    """Check one `Outcomes.from_columns` row alone, as a walk over the rows
    would, raising its first error."""
    if len(utils) != n:
        raise GameError(f"outcome {name!r} has wrong utility count for {n} players")
    for u in utils:
        try:
            to_fraction(u)
        except GameError as exc:
            raise GameError(f"outcome {name!r}: {exc}") from None
    if winners is not None and not tuple(winners):
        raise GameError(f"outcome {name!r}: winner set, when present, must be non-empty")


@_frozen
class Outcomes(_Frozen):
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
        labels = list(map(attrgetter("label"), records))
        utils = list(map(attrgetter("utils"), records))
        return cls.from_columns(labels, labels, utils, list(map(attrgetter("winners"), records)), n)

    @classmethod
    def from_columns(
        cls,
        names: Sequence[str],
        labels: Sequence[str],
        utils: Sequence[Sequence],
        winners: Sequence[Iterable[str] | None],
        n: int,
        rows: Sequence[int] | None = None,
    ) -> Outcomes:
        """Encode the columns `labels`, `utils` (`n` utilities a row) and
        `winners` (None or a non-empty set of names a row); position k is row
        `rows[k]` of a permutation, or row k, and `names[k]` in messages.

        Each distinct utility spelling goes through `to_fraction` once,
        keyed by value when only `int`s and `str`s occur and by type and
        value otherwise, so that `True` is never taken for `1`; the codes
        are then renumbered by exact value, so ``1``, ``1.0`` and ``"2/2"``
        share one.  Labels are coded in order of first occurrence by row and
        the alternatives are those that win somewhere, sorted, so the store
        is canonical.

        The columns are read in whole-list passes, each cutting the rows
        before the first position it rejects.  A cut position is checked
        alone by `_check_row`, which raises its error: the one a walk over
        the rows in the order given would raise first.
        """
        end = len(utils)
        if set(map(len, utils)) - {n}:
            end = next(k for k, row in enumerate(utils) if len(row) != n)
        flat = list(chain.from_iterable(islice(utils, end)))
        plain = set(map(type, flat)) <= {int, str}
        keys = flat if plain else list(zip(map(type, flat), flat))
        try:
            spellings = dict.fromkeys(keys)
        except TypeError:  # an unhashable spelling, so not a utility
            end = _first_unhashable(keys) // n
            del keys[end * n :]
            spellings = dict.fromkeys(keys)
        found: list[Fraction] = []
        try:
            for key in spellings:
                found.append(to_fraction(key if plain else key[1]))
        except GameError:
            end = keys.index(key) // n
        sets = None
        if winners.count(None) < len(winners):
            sets = [None if won is None else tuple(won) for won in islice(winners, end)]
            if () in sets:
                end = sets.index(())
        if end < len(utils):
            _check_row(names[end], utils[end], winners[end], n)
        values = tuple(sorted(set(found)))
        rank = dict(zip(values, range(len(values))))
        code_of = dict(zip(spellings, map(rank.__getitem__, found)))
        codes = np.fromiter(map(code_of.__getitem__, keys), _code_dtype(len(values)), len(keys))
        codes = codes.reshape(end, n)
        flags = alternatives = None
        if sets is not None:
            kinds = dict.fromkeys(sets)
            won = [frozenset(kind or ()) for kind in kinds]
            alternatives = tuple(sorted(frozenset().union(*won)))
            table = np.array([[a in w for a in alternatives] for w in won], dtype=bool)
            flags = table[list(map(dict(zip(kinds, range(len(kinds)))).__getitem__, sets))]
        if rows is not None:
            by_row = np.empty(end, dtype=np.intp)
            by_row[rows] = np.arange(end)
            codes = codes[by_row]
            flags = None if flags is None else flags[by_row]
            labels = list(map(labels.__getitem__, by_row.tolist()))
        label_names = list(dict.fromkeys(labels))
        label_of = dict(zip(label_names, range(len(label_names))))
        label_codes = np.fromiter(
            map(label_of.__getitem__, labels), _code_dtype(len(label_names)), end
        )
        return cls(values, codes, tuple(label_names), label_codes, alternatives, flags)

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


@_frozen
class StrategicGame(_Frozen):
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
