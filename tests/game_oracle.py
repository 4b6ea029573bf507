"""Brute-force solution concepts and a record-at-a-time game reader, kept
as test oracles.

Everything here reads one utility at a time through `OutcomeRecord`s and
compares `Fraction`s, so it shares nothing with the integer-coded
`stratlogic.games.best_response` or with the property formulas that the
tests check against it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from stratlogic.games import (
    GameForm,
    OutcomeRecord,
    Outcomes,
    Profile,
    StrategicGame,
    all_profiles,
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


def game_from_records(data: dict) -> StrategicGame:
    """A well-formed game JSON document read one entry at a time: an
    `OutcomeRecord` per profile, in `all_profiles` order, then
    `Outcomes.from_records`."""
    form = GameForm(data["strategies"])
    records = []
    for s in all_profiles(form):
        entry = data["outcomes"][form.profile_key(s)]
        records.append(OutcomeRecord(entry["label"], entry["utils"], entry.get("winners")))
    return StrategicGame(form, Outcomes.from_records(records, form.n))
