"""Brute-force solution concepts and a record-at-a-time game reader and
encoder, kept as test oracles.

Everything here reads one utility at a time through `OutcomeRecord`s and
compares `Fraction`s, so it shares nothing with the integer-coded
`stratlogic.games.best_response`, with the property formulas that the tests
check against it, or with the whole-column encoder
`stratlogic.games.Outcomes.from_columns`.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import product

import numpy as np

from stratlogic.games import (
    GameForm,
    OutcomeRecord,
    Outcomes,
    Profile,
    StrategicGame,
    all_profiles,
    to_fraction,
)


def util(game: StrategicGame, s: Profile, player: int) -> Fraction:
    game.form._check_player(player)
    return game.outcome(s).utils[player - 1]


def _switches(game: StrategicGame, s: Profile, player: int) -> list[Profile]:
    pos = player - 1
    return [
        s[:pos] + (alt,) + s[pos + 1 :]
        for alt in range(len(game.form.strategy_sets[pos]))
    ]


def is_best_response(game: StrategicGame, s: Profile, player: int) -> bool:
    """True iff no own-strategy switch strictly improves `player` at `s`."""
    game.form._check_player(player)
    here = util(game, s, player)
    return all(util(game, t, player) <= here for t in _switches(game, s, player))


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
            if util(game, s_b, player) > util(game, s_a, player):
                return False
    return True


def _dtype(count: int) -> np.dtype:
    """The smallest unsigned integer dtype that holds the codes below `count`."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if count <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def encode_records(records: list[OutcomeRecord], n: int) -> Outcomes:
    """The store of `records`, one row each, built by a walk over the rows:
    each distinct utility spelling, keyed by type and value, is converted
    when first seen and its code renumbered by exact value afterwards;
    labels and winner sets are coded in order of first occurrence."""
    first: dict[tuple[type, object], int] = {}  # spelling -> raw code
    found: list[Fraction] = []  # raw code -> value
    labels: dict[str, int] = {}
    sets: dict[tuple[str, ...] | None, int] = {}
    raw: list[int] = []
    label_raw: list[int] = []
    set_raw: list[int] = []
    for rec in records:
        assert len(rec.utils) == n
        for u in rec.utils:
            key = (u.__class__, u)
            if key not in first:
                found.append(to_fraction(u))
                first[key] = len(found) - 1
            raw.append(first[key])
        key = None if rec.winners is None else tuple(sorted(rec.winners))
        set_raw.append(sets.setdefault(key, len(sets)))
        label_raw.append(labels.setdefault(rec.label, len(labels)))
    values = sorted(set(found))
    rank = {v: code for code, v in enumerate(values)}
    code_table = np.array([rank[v] for v in found], dtype=_dtype(len(values)))
    codes = code_table[np.array(raw, dtype=np.intp).reshape(-1, n)]
    label_codes = np.array(label_raw, dtype=_dtype(len(labels)))
    won = [None if key is None else frozenset(key) for key in sets]
    alternatives = winners = None
    if any(w is not None for w in won):
        alternatives = tuple(sorted(frozenset().union(*filter(None, won))))
        table = [[w is not None and a in w for a in alternatives] for w in won]
        winners = np.array(table, dtype=bool)[set_raw]
    return Outcomes(tuple(values), codes, tuple(labels), label_codes, alternatives, winners)


def game_from_records(data: Mapping) -> StrategicGame:
    """A well-formed game JSON document read one entry at a time: an
    `OutcomeRecord` per profile, in `all_profiles` order, then
    `encode_records`, which shares no code with `Outcomes.from_columns`."""
    form = GameForm(data["strategies"])
    records = []
    for s in all_profiles(form):
        entry = data["outcomes"][form.profile_key(s)]
        records.append(OutcomeRecord(entry["label"], entry["utils"], entry.get("winners")))
    return StrategicGame(form, encode_records(records, form.n))
