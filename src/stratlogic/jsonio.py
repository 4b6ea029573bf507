"""JSON formats: games, voting specs, intensional models, reports, ASTs."""
from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from typing import Any

from .games import GameError, GameForm, Outcomes, StrategicGame, all_profiles
from .models import IntensionalModel
from .syntax import Node
from .voting import (
    AbsoluteMajority,
    AuditReport,
    Ballot,
    BallotProfile,
    ConstantRule,
    DictatorRule,
    Manipulation,
    Plurality,
    ResoluteWrap,
    VotingError,
    VotingRule,
)


class FormatError(ValueError):
    """Raised when a JSON document does not match the expected format."""


def _no_duplicate_keys(pairs):
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"duplicate key {key!r}")
            seen.add(key)
    return data


def loads(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError("not valid JSON: nesting too deep") from None


def load_path(path: str | Path) -> Any:
    return loads(Path(path).read_text())


def _need(data: Mapping, key: str, what: str):
    if not isinstance(data, Mapping):
        raise FormatError(f"{what} must be a JSON object")
    if key not in data:
        raise FormatError(f"{what} is missing {key!r}")
    return data[key]


def util_to_json(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# --------------------------------------------------------------------------
# games


def game_to_dict(game: StrategicGame) -> dict:
    table = game.outcomes
    outcomes = [(s, table.record(row)) for row, s in enumerate(all_profiles(game.form))]
    return _form_to_dict(game.form, outcomes, game.form)


def _form_to_dict(form: GameForm, outcomes, ambient: GameForm) -> dict:
    """A form with its (profile, record) outcomes; profiles are keyed in
    the ambient form's strategy indices."""
    table = {}
    for profile, rec in outcomes:
        entry: dict[str, Any] = {
            "label": rec.label,
            "utils": [util_to_json(u) for u in rec.utils],
        }
        if rec.winners is not None:
            entry["winners"] = sorted(rec.winners)
        table[ambient.profile_key(profile)] = entry
    return {
        "players": form.n,
        "strategies": [list(names) for names in form.strategy_sets],
        "outcomes": table,
    }


def _outcome_row(key: str, entry, n: int) -> tuple[str, str, list, list | None]:
    """Outcome entry `key` as an `Outcomes.from_rows` row without its index.
    Its JSON shape is checked here, in `_need`'s words; the encoder
    converts the utilities."""
    if not isinstance(entry, Mapping):
        raise FormatError(f"outcome {key!r} must be a JSON object")
    if "label" not in entry:
        raise FormatError(f"outcome {key!r} is missing 'label'")
    label = entry["label"]
    if not isinstance(label, str):
        raise FormatError(f"outcome {key!r}: label must be a string")
    if "utils" not in entry:
        raise FormatError(f"outcome {key!r} is missing 'utils'")
    utils = entry["utils"]
    if not isinstance(utils, list) or len(utils) != n:
        raise FormatError(f"outcome {key!r}: need a list of {n} utilities")
    winners = entry.get("winners")
    if winners is not None:
        if not isinstance(winners, list) or not all(
            isinstance(w, str) for w in winners
        ):
            raise FormatError(f"outcome {key!r}: winners must be a list of names")
    return key, label, utils, winners


def _encode(rows, n: int, count: int, row_key=str) -> Outcomes:
    """`Outcomes.from_rows`, its errors raised as `FormatError`s."""
    try:
        return Outcomes.from_rows(rows, n, count, row_key)
    except GameError as exc:
        raise FormatError(str(exc)) from exc


def _form_from_dict(data: Mapping, what: str) -> GameForm:
    players = _need(data, "players", what)
    strategies = _need(data, "strategies", what)
    if not isinstance(strategies, list) or not all(
        isinstance(names, list) and all(isinstance(n, str) for n in names)
        for names in strategies
    ):
        raise FormatError(f"{what}: strategies must be a list of name lists")
    # JSON's true and 2.0 are no player counts, though Python equates them
    # with 1 and 2; the same holds for the world numbers of relation pairs.
    if type(players) is not int:
        raise FormatError(f"{what}: 'players' must be an integer, not {players!r}")
    if players != len(strategies):
        raise FormatError(
            f"{what}: 'players' is {players} but {len(strategies)} strategy "
            f"sets are given"
        )
    try:
        return GameForm(strategies)
    except GameError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def game_from_dict(data: Mapping) -> StrategicGame:
    form = _form_from_dict(data, "game")
    outcomes = _need(data, "outcomes", "game")
    if not isinstance(outcomes, Mapping):
        raise FormatError("game: outcomes must be an object")

    n = form.n

    def rows():
        for key, entry in outcomes.items():
            try:
                row = form.row_of_key(key)
            except GameError as exc:
                raise FormatError(f"outcome key {key!r}: {exc}") from exc
            yield (row, *_outcome_row(key, entry, n))

    def row_key(row: int) -> str:
        return form.profile_key(all_profiles(form)[row])

    return StrategicGame(form, _encode(rows(), n, form.profile_count(), row_key))


def load_game(path: str | Path) -> StrategicGame:
    return game_from_dict(load_path(path))


# --------------------------------------------------------------------------
# voting specs


def voting_spec_from_dict(data: Mapping) -> tuple[VotingRule, BallotProfile]:
    alternatives = _need(data, "alternatives", "voting spec")
    if not isinstance(alternatives, list) or not all(
        isinstance(a, str) for a in alternatives
    ):
        raise FormatError("voting spec: alternatives must be a list of names")
    alternatives = tuple(alternatives)
    ballots_raw = _need(data, "ballots", "voting spec")
    if not isinstance(ballots_raw, list) or not ballots_raw:
        raise FormatError("voting spec: ballots must be a non-empty list")
    if not all(isinstance(b, str) for b in ballots_raw):
        raise FormatError("voting spec: each ballot must be a string")
    tiebreak = data.get("tiebreak")
    if tiebreak is not None and not isinstance(tiebreak, str):
        raise FormatError("voting spec: tiebreak must be a string or null")
    try:
        ballots = tuple(Ballot.parse(b, alternatives) for b in ballots_raw)
        rule = _rule_from_name(_need(data, "rule", "voting spec"), alternatives)
        if tiebreak is not None:
            rule = ResoluteWrap(rule, Ballot.parse(tiebreak, alternatives))
    except VotingError as exc:
        raise FormatError(f"voting spec: {exc}") from exc
    return rule, ballots


def _rule_from_name(name, alternatives: tuple[str, ...]) -> VotingRule:
    if not isinstance(name, str):
        raise FormatError("voting spec: rule must be a string")
    if name == "plurality":
        return Plurality(alternatives)
    if name == "absolute_majority":
        return AbsoluteMajority(alternatives)
    kind, _, arg = name.partition(":")
    if kind == "dictator" and arg:
        try:
            return DictatorRule(alternatives, int(arg))
        except ValueError:
            raise FormatError(f"voting spec: bad voter number {arg!r}") from None
    if kind == "constant" and arg:
        return ConstantRule(alternatives, arg)
    raise FormatError(f"voting spec: unknown rule {name!r}")


def load_voting_spec(path: str | Path) -> tuple[VotingRule, BallotProfile]:
    return voting_spec_from_dict(load_path(path))


# --------------------------------------------------------------------------
# intensional models


def intensional_to_dict(model: IntensionalModel) -> dict:
    forms = []
    table = model.outcomes
    for form_idx, (fid, form) in enumerate(model.forms):
        outcomes = [
            (profile, table.record(row))
            for row, (wf, profile) in enumerate(model.worlds)
            if wf == form_idx
        ]
        forms.append({"id": fid, **_form_to_dict(form, outcomes, model.ambient)})
    relations = {}
    for player in model.ambient.players:
        src, dst = model.agent_edges(player)
        relations[str(player)] = list(map(list, zip(src.tolist(), dst.tolist())))
    return {
        "forms": forms,
        "worlds": [
            [model.forms[fi][0], model.ambient.profile_key(profile)]
            for fi, profile in model.worlds
        ],
        "relations": relations,
    }


def intensional_from_dict(data: Mapping) -> IntensionalModel:
    forms_raw = _need(data, "forms", "model")
    if not isinstance(forms_raw, list) or not forms_raw:
        raise FormatError("model: forms must be a non-empty list")
    forms: list[tuple[str, GameForm]] = []
    form_outcomes: list[Mapping] = []
    for entry in forms_raw:
        fid = _need(entry, "id", "form")
        if not isinstance(fid, str):
            raise FormatError("form: id must be a string")
        form = _form_from_dict(entry, f"form {fid!r}")
        outcomes = _need(entry, "outcomes", f"form {fid!r}")
        if not isinstance(outcomes, Mapping):
            raise FormatError(f"form {fid!r}: outcomes must be an object")
        forms.append((fid, form))
        form_outcomes.append(outcomes)
    n = forms[0][1].n
    # Ambient strategy sets: per-position ordered union over the forms.
    ambient_sets: list[list[str]] = [[] for _ in range(n)]
    for _, form in forms:
        if form.n != n:
            raise FormatError("model: forms disagree on the player count")
        for pos in range(n):
            for name in form.strategy_sets[pos]:
                if name not in ambient_sets[pos]:
                    ambient_sets[pos].append(name)
    try:
        ambient = GameForm(ambient_sets)
    except GameError as exc:
        raise FormatError(f"model: {exc}") from exc
    by_id = {fid: idx for idx, (fid, _) in enumerate(forms)}
    worlds_raw = _need(data, "worlds", "model")
    if not isinstance(worlds_raw, list) or not worlds_raw:
        raise FormatError("model: worlds must be a non-empty list")
    worlds: list[tuple[int, tuple[int, ...]]] = []

    def rows():
        for entry in worlds_raw:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise FormatError(f"model: world {entry!r} must be [form, profile]")
            fid, key = entry
            if not isinstance(fid, str) or fid not in by_id:
                raise FormatError(f"model: world references unknown form {fid!r}")
            if not isinstance(key, str):
                raise FormatError(f"world {entry!r}: profile key must be a string")
            form_idx = by_id[fid]
            try:
                profile = ambient.profile_from_key(key)
            except GameError as exc:
                raise FormatError(f"world {entry!r}: {exc}") from exc
            outcomes = form_outcomes[form_idx]
            if key not in outcomes:
                raise FormatError(f"form {fid!r} has no outcome for world {key!r}")
            worlds.append((form_idx, profile))
            yield (len(worlds) - 1, *_outcome_row(key, outcomes[key], n))

    table = _encode(rows(), n, len(worlds_raw))
    relations_raw = data.get("relations", {})
    if not isinstance(relations_raw, Mapping):
        raise FormatError("model: relations must be an object")
    edges: dict[int, list[list[int]]] = {}
    for key, pairs in relations_raw.items():
        try:
            player = int(key)
            if str(player) != key:
                raise ValueError
        except ValueError:
            raise FormatError(f"model: bad agent key {key!r}") from None
        if not isinstance(pairs, list):
            raise FormatError(f"model: relation for agent {key} must be a list")
        for pair in pairs:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and type(pair[0]) is int
                and type(pair[1]) is int
            ):
                raise FormatError(f"model: bad relation pair {json.dumps(pair, default=repr)}")
        edges[player] = pairs
    try:
        return IntensionalModel(ambient, forms, worlds, table, edges)
    except GameError as exc:
        raise FormatError(str(exc)) from exc


def load_intensional(path: str | Path) -> IntensionalModel:
    return intensional_from_dict(load_path(path))


# --------------------------------------------------------------------------
# audit reports


def manipulation_to_dict(m: Manipulation) -> dict:
    return {
        "profile": [str(b) for b in m.profile],
        "voter": m.voter,
        "deviation": str(m.deviation),
        "before": sorted(m.before),
        "after": sorted(m.after),
    }


def audit_report_to_dict(report: AuditReport) -> dict:
    return {
        "rule": report.rule,
        "resolute": report.resolute,
        "strategyProof": report.strategy_proof,
        "manipulation": (
            None
            if report.manipulation is None
            else manipulation_to_dict(report.manipulation)
        ),
        "nonImposed": report.non_imposed,
        "distinctWinnerSets": report.distinct_winner_sets,
        "dictators": sorted(report.dictators),
        "gsConsistent": report.gs_consistent,
        "notes": list(report.notes),
    }


# --------------------------------------------------------------------------
# ASTs


def ast_to_dict(node) -> dict:
    """Type-tagged JSON view of a formula, program, vector, term or coalition
    formula: ``{"node": class name, field: value, ...}`` with the fields in
    ``__match_args__`` order.  A node becomes a dict and a tuple of nodes a
    list; a `Fraction` goes through `util_to_json` and a frozenset becomes a
    sorted list.

    Built top-down from an explicit stack, so deep trees and long chains
    never reach the recursion limit."""
    if not isinstance(node, Node):
        raise TypeError(f"cannot serialize {node!r}")
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, out = stack.pop()
        out["node"] = type(node).__name__
        for name in node.__match_args__:
            value = getattr(node, name)
            if isinstance(value, Node):
                value = _ast_child(value, stack)
            elif isinstance(value, tuple):
                value = [_ast_child(item, stack) for item in value]
            elif isinstance(value, Fraction):
                value = util_to_json(value)
            elif isinstance(value, frozenset):
                value = sorted(value)
            out[name] = value
    return root


def _ast_child(node: Node, stack: list) -> dict:
    """An empty dict for a child node, filled in when the stack reaches it."""
    out: dict = {}
    stack.append((node, out))
    return out
