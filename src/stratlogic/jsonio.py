"""JSON formats: games, voting specs, intensional models, reports, ASTs."""
from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, islice, product, repeat
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
    except FormatError:  # a duplicate key
        raise
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except ValueError:  # an integer longer than `int` converts
        limit = sys.get_int_max_str_digits()
        raise FormatError(f"not valid JSON: an integer has more than {limit} digits") from None
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


def _check_entry(key: str, entry, n: int) -> None:
    """Check outcome entry `key` alone, raising its first JSON shape error
    in `_need`'s words; the encoder checks the utilities."""
    if not isinstance(entry, Mapping):
        raise FormatError(f"outcome {key!r} must be a JSON object")
    if "label" not in entry:
        raise FormatError(f"outcome {key!r} is missing 'label'")
    if not isinstance(entry["label"], str):
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


def _cut(column: list, end: int, kind) -> int:
    """`end`, or the position of the first of `column[:end]` that is not a
    `kind` if there is one; a column of `kind`s costs one set of types."""
    if all(issubclass(t, kind) for t in set(map(type, islice(column, end)))):
        return end
    return next((k for k, item in enumerate(column) if not isinstance(item, kind)), end)


def _encode(names: list, entries: list, n: int, rows=None, rejected=None) -> Outcomes:
    """The store of the JSON outcome objects `entries`, named `names` in
    messages: entry k is row `rows[k]` of a permutation, or row k.

    The entries are typed in whole-list passes, each cutting the list
    before the first entry it rejects, and `Outcomes.from_columns` reads the
    entries kept, raising the error of the first row it rejects.  Then the
    first entry cut is checked alone by `_check_entry`, which raises its
    error, and last `rejected`, an error the caller found after the
    entries, is raised: errors come as a walk over the entries gives them.
    """
    end = _cut(entries, len(entries), Mapping)
    get = dict.get if _cut(entries, end, dict) == end else Mapping.get
    labels = list(map(get, islice(entries, end), repeat("label")))
    end = _cut(labels, end, str)
    utils = list(map(get, islice(entries, end), repeat("utils")))
    end = _cut(utils, end, list)
    if set(map(len, islice(utils, end))) - {n}:
        end = next(k for k, row in enumerate(islice(utils, end)) if len(row) != n)
    winners = list(map(get, islice(entries, end), repeat("winners")))
    if winners.count(None) < len(winners):
        end = _cut(winners, end, (list, type(None)))
        named = chain.from_iterable(filter(None, islice(winners, end)))
        if not all(issubclass(t, str) for t in set(map(type, named))):
            kept = enumerate(islice(winners, end))
            end = next(k for k, won in kept if won and not all(isinstance(w, str) for w in won))
    cut = end < len(entries)
    if cut or rejected is not None:
        rows = None
    try:
        table = Outcomes.from_columns(names, labels[:end], utils[:end], winners[:end], n, rows)
    except GameError as exc:
        raise FormatError(str(exc)) from exc
    if cut:
        _check_entry(names[end], entries[end], n)
    if rejected is not None:
        raise rejected
    return table


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
    keys = list(outcomes)
    profiles = list(map(",".join, product(*form.strategy_sets)))
    end = len(keys)
    rows = rejected = None
    if keys != profiles:  # each key's row, from one table of the form's keys
        row_of = dict(zip(profiles, range(len(profiles))))
        rows = list(map(row_of.get, keys))
        if None in rows:  # a key that names no profile, and maybe no string
            end = rows.index(None)
            try:
                if not isinstance(keys[end], str):
                    raise GameError("not a string")
                form.profile_from_key(keys[end])
            except GameError as exc:
                rejected = FormatError(f"outcome key {keys[end]!r}: {exc}")
        elif end < len(profiles):
            missing = next(key for key in profiles if key not in outcomes)
            rejected = FormatError(f"no outcome for profile {missing!r}")
    entries = list(islice(outcomes.values(), end))
    table = _encode(keys, entries, form.n, rows, rejected)
    return StrategicGame(form, table)


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


def _canonical_int(text: str) -> int | None:
    """The integer that `text` spells when it is that integer's own spelling,
    as a voter or agent number must be: no blanks, `+`, leading zeros or
    digit separators; else None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _rule_from_name(name, alternatives: tuple[str, ...]) -> VotingRule:
    if not isinstance(name, str):
        raise FormatError("voting spec: rule must be a string")
    if name == "plurality":
        return Plurality(alternatives)
    if name == "absolute_majority":
        return AbsoluteMajority(alternatives)
    kind, _, arg = name.partition(":")
    if kind == "dictator" and arg:
        voter = _canonical_int(arg)
        if voter is None:
            raise FormatError(f"voting spec: bad voter number {arg!r}")
        return DictatorRule(alternatives, voter)
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

    def world(entry) -> tuple[int, tuple[int, ...], str]:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise FormatError(f"model: world {entry!r} must be [form, profile]")
        fid, key = entry
        if not isinstance(fid, str) or fid not in by_id:
            raise FormatError(f"model: world references unknown form {fid!r}")
        if not isinstance(key, str):
            raise FormatError(f"world {entry!r}: profile key must be a string")
        try:
            profile = ambient.profile_from_key(key)
        except GameError as exc:
            raise FormatError(f"world {entry!r}: {exc}") from exc
        if key not in form_outcomes[by_id[fid]]:
            raise FormatError(f"form {fid!r} has no outcome for world {key!r}")
        return by_id[fid], profile, key

    # The worlds are walked up to the first bad one; their outcome entries
    # are then read as a game's are, and its error comes after theirs.
    keys: list[str] = []
    entries: list = []
    rejected = None
    for entry in worlds_raw:
        try:
            form_idx, profile, key = world(entry)
        except FormatError as exc:
            rejected = exc
            break
        worlds.append((form_idx, profile))
        keys.append(key)
        entries.append(form_outcomes[form_idx][key])
    table = _encode(keys, entries, n, rejected=rejected)
    relations_raw = data.get("relations", {})
    if not isinstance(relations_raw, Mapping):
        raise FormatError("model: relations must be an object")
    edges: dict[int, list[list[int]]] = {}
    for key, pairs in relations_raw.items():
        player = _canonical_int(key)
        if player is None:
            raise FormatError(f"model: bad agent key {key!r}")
        if not isinstance(pairs, list):
            raise FormatError(f"model: relation for agent {key} must be a list")
        # The model reads one flat list of ints.  Whole-list passes check it;
        # only when one fails are the pairs walked, to name the first bad one.
        flat = (
            list(chain.from_iterable(pairs))
            if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            else None
        )
        if flat is None or not set(map(type, flat)) <= {int}:
            for pair in pairs:
                if not (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and type(pair[0]) is int
                    and type(pair[1]) is int
                ):
                    raise FormatError(f"model: bad relation pair {json.dumps(pair, default=repr)}")
            flat = list(chain.from_iterable(pairs))
        edges[player] = flat
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
    formula, as a table of its distinct subtrees: ``{"root": k, "nodes":
    [...]}``.  An entry is ``{"node": class name, field: value, ...}`` with
    the fields in ``__match_args__`` order: a child node is its entry's index
    and a tuple of nodes a list of indices, a `Fraction` goes through
    `util_to_json` and a frozenset becomes a sorted list.  Entries come in
    post-order, children left to right, and equal subtrees share the entry
    keyed on its spelling, so the table depends on the tree's value alone.
    The walk keeps an explicit stack, so deep trees never reach the
    recursion limit."""
    if not isinstance(node, Node):
        raise TypeError(f"cannot serialize {node!r}")
    nodes: list[dict] = []
    by_spelling: dict[str, int] = {}
    by_id: dict[int, int] = {}
    stack = [node]
    while stack:
        top = stack[-1]
        entry = {"node": type(top).__name__}
        for name in top.__match_args__:
            value = getattr(top, name)
            if isinstance(value, Node):
                value = by_id.get(id(value), value)
            elif isinstance(value, tuple):
                value = [by_id.get(id(item), item) for item in value]
            elif isinstance(value, Fraction):
                value = util_to_json(value)
            elif isinstance(value, frozenset):
                value = sorted(value)
            entry[name] = value
        # Children not yet in the table: their entries come first.
        todo = [c for v in entry.values() for c in (v if type(v) is list else [v])]
        todo = [c for c in todo if isinstance(c, Node)]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        k = by_spelling.setdefault(json.dumps(entry), len(nodes))
        if k == len(nodes):
            nodes.append(entry)
        by_id[id(top)] = k
    return {"root": by_id[id(node)], "nodes": nodes}
