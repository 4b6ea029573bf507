"""JSON loading/serialization for games, voting specs, and intensional models."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from stratlogic import (
    Ballot,
    Box,
    Concrete,
    FormatError,
    MaslModel,
    UtilEq,
    Vector,
    extension,
    render,
)
from stratlogic.coalition import CLAtom, CLBox
from stratlogic.jsonio import (
    audit_report_to_dict,
    ast_to_dict,
    game_from_dict,
    game_to_dict,
    intensional_from_dict,
    intensional_to_dict,
    load_game,
    load_intensional,
    load_voting_spec,
    loads,
    manipulation_to_dict,
    util_to_json,
    voting_spec_from_dict,
)
from stratlogic.syntax import ADV, Agent, Star, Vec
from stratlogic.voting import (
    AbsoluteMajority,
    ConstantRule,
    DictatorRule,
    Plurality,
    ResoluteWrap,
    audit_rule,
)
from stratlogic.catalog import (
    commitment_confusion,
    prisoners_dilemma,
    tiebreak3,
    vote3_game,
)

from dense_oracle import relation_via_pre


# --------------------------------------------------------------------------
# Primitives


def test_util_to_json_integral_vs_fractional():
    assert util_to_json(Fraction(3)) == 3
    assert util_to_json(Fraction(-2)) == -2
    assert util_to_json(Fraction(1, 2)) == "1/2"


def test_loads_rejects_duplicate_keys():
    with pytest.raises(FormatError):
        loads('{"a": 1, "a": 2}')
    assert loads('{"a": 1}') == {"a": 1}


def test_loads_rejects_bad_json():
    with pytest.raises(FormatError):
        loads("{nope")


def test_over_deep_json_is_a_format_error(tmp_path):
    # 100 000 levels, far past the default recursion limit
    path = tmp_path / "deep.json"
    path.write_text('{"players": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(FormatError, match="nesting too deep"):
        load_game(path)


# --------------------------------------------------------------------------
# Games


def test_game_round_trip():
    pd = prisoners_dilemma()
    again = game_from_dict(game_to_dict(pd))
    assert again.form == pd.form
    assert again.outcomes == pd.outcomes


def test_game_round_trip_with_winners_and_fractions():
    game = vote3_game()
    data = game_to_dict(game)
    assert data["outcomes"]["a,b,c"]["winners"] == ["a", "b", "c"]
    again = game_from_dict(data)
    assert again.outcomes == game.outcomes


def test_game_from_dict_errors():
    base = game_to_dict(prisoners_dilemma())

    missing = dict(base)
    del missing["strategies"]
    with pytest.raises(FormatError):
        game_from_dict(missing)

    wrong_players = json.loads(json.dumps(base))
    wrong_players["players"] = 3
    with pytest.raises(FormatError):
        game_from_dict(wrong_players)

    short = json.loads(json.dumps(base))
    del short["outcomes"]["d,d"]
    with pytest.raises(Exception):
        game_from_dict(short)

    unlabeled = json.loads(json.dumps(base))
    del unlabeled["outcomes"]["c,c"]["label"]
    with pytest.raises(FormatError):
        game_from_dict(unlabeled)

    empty_winners = json.loads(json.dumps(base))
    empty_winners["outcomes"]["c,c"]["winners"] = []
    with pytest.raises(Exception):
        game_from_dict(empty_winners)


def test_game_load_from_file(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(game_to_dict(prisoners_dilemma())))
    game = load_game(path)
    assert game == prisoners_dilemma()


# --------------------------------------------------------------------------
# Voting specs


def _spec(rule, tiebreak=None):
    data = {
        "alternatives": ["a", "b", "c"],
        "ballots": ["abc", "bca", "cab"],
        "rule": rule,
    }
    if tiebreak:
        data["tiebreak"] = tiebreak
    return data


def test_voting_spec_rules():
    rule, ballots = voting_spec_from_dict(_spec("plurality"))
    assert isinstance(rule, Plurality)
    assert [str(b) for b in ballots] == ["abc", "bca", "cab"]

    rule, _ = voting_spec_from_dict(_spec("absolute_majority"))
    assert isinstance(rule, AbsoluteMajority)

    rule, _ = voting_spec_from_dict(_spec("dictator:2"))
    assert rule == DictatorRule(("a", "b", "c"), 2)

    rule, _ = voting_spec_from_dict(_spec("constant:b"))
    assert rule == ConstantRule(("a", "b", "c"), "b")

    rule, _ = voting_spec_from_dict(_spec("plurality", tiebreak="abc"))
    assert isinstance(rule, ResoluteWrap)
    assert rule.tiebreak == Ballot.parse("abc", ("a", "b", "c"))


def test_voting_spec_errors():
    with pytest.raises(FormatError):
        voting_spec_from_dict(_spec("borda"))
    with pytest.raises(FormatError):
        voting_spec_from_dict(_spec("dictator:zero"))
    with pytest.raises(FormatError):
        voting_spec_from_dict({"alternatives": ["a", "b"], "rule": "plurality"})


def test_load_voting_spec(tmp_path):
    path = tmp_path / "vote.json"
    path.write_text(json.dumps(_spec("plurality", tiebreak="abc")))
    rule, ballots = load_voting_spec(path)
    assert rule == tiebreak3()
    assert len(ballots) == 3


# --------------------------------------------------------------------------
# Audit reports


def test_audit_report_serialization():
    report = audit_rule(tiebreak3(), 3)
    data = audit_report_to_dict(report)
    assert data["rule"] == "plurality+tiebreak:abc"
    assert data["resolute"] is True
    assert data["strategyProof"] is False
    assert data["nonImposed"] is True
    assert data["dictators"] == []
    assert data["gsConsistent"] is True
    witness = data["manipulation"]
    assert set(witness) == {"profile", "voter", "deviation", "before", "after"}
    assert witness == manipulation_to_dict(report.manipulation)
    json.dumps(data)  # serializable


def test_audit_report_without_witness():
    report = audit_rule(ConstantRule(("a", "b", "c"), "a"), 2)
    data = audit_report_to_dict(report)
    assert data["manipulation"] is None
    assert data["nonImposed"] is False


# --------------------------------------------------------------------------
# Intensional models


def test_intensional_round_trip():
    model, actual = commitment_confusion()
    data = intensional_to_dict(model)
    again = intensional_from_dict(data)
    assert [again.state_key(i) for i in range(again.size)] == [
        model.state_key(i) for i in range(model.size)
    ]
    assert again.index(actual) == model.index(actual)
    for player in (1, 2):
        assert np.array_equal(
            relation_via_pre(again, Agent(player)),
            relation_via_pre(model, Agent(player)),
        )
    f = UtilEq(2, 3)
    assert np.array_equal(extension(again, f), extension(model, f))


def test_intensional_relations_are_index_pairs():
    model, _ = commitment_confusion()
    data = intensional_to_dict(model)
    assert set(data) == {"forms", "worlds", "relations"}
    for pair in data["relations"]["2"]:
        assert len(pair) == 2
        assert all(isinstance(x, int) for x in pair)
    # worlds are [form id, profile key] pairs
    assert data["worlds"][0] == ["Gr", "c,c"]


def test_intensional_from_dict_errors():
    model, _ = commitment_confusion()
    data = json.loads(json.dumps(intensional_to_dict(model)))
    bad = json.loads(json.dumps(data))
    bad["worlds"].append(["NoSuchForm", "c,c"])
    with pytest.raises(Exception):
        intensional_from_dict(bad)
    bad = json.loads(json.dumps(data))
    bad["relations"]["2"][0] = [0, 99]
    with pytest.raises(Exception):
        intensional_from_dict(bad)


def test_load_intensional(tmp_path):
    model, _ = commitment_confusion()
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(intensional_to_dict(model)))
    again = load_intensional(path)
    assert again.size == model.size


# --------------------------------------------------------------------------
# AST serialization


def test_ast_to_dict_masl():
    f = Box(Star(Vec(Vector([Concrete("c"), ADV]))), UtilEq(1, Fraction(1, 2)))
    data = ast_to_dict(f)
    assert data["node"] == "Box"
    assert data["program"]["node"] == "Star"
    vec = data["program"]["body"]["vector"]
    assert vec == {
        "node": "Vector",
        "terms": [{"node": "Concrete", "name": "c"}, {"node": "Adversary"}],
    }
    assert data["body"] == {"node": "UtilEq", "player": 1, "value": "1/2"}
    json.dumps(data)


def test_ast_to_dict_cl():
    f = CLBox(frozenset({2, 1}), CLAtom(UtilEq(1, 0)))
    data = ast_to_dict(f)
    assert data["node"] == "CLBox"
    assert data["coalition"] == [1, 2]
    json.dumps(data)


def test_ast_to_dict_rejects_unknown():
    with pytest.raises(Exception):
        ast_to_dict("not an ast")
