"""JSON loading/serialization for games, voting specs, and intensional models."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from stratlogic import games
from stratlogic.syntax import ADV, CUR, Agent, Signature, Star, Vec
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

import ast_oracle
from dense_oracle import relation_via_pre
from game_oracle import game_from_records
from gens import random_cl_formula, random_formula, random_program


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


def test_loads_names_the_first_repeated_key_in_document_order():
    with pytest.raises(FormatError, match="duplicate key 'b'"):
        loads('{"a": 1, "b": 2, "b": 3, "a": 4}')
    with pytest.raises(FormatError, match="duplicate key 'a'"):
        loads('[{"c": 0}, {"a": 1, "b": 2, "a": 3, "b": 4}]')


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


# Each inner tuple spells one value several ways.
_SPELLINGS = (
    (1, 1.0, "1", "2/2"),
    (0.5, "1/2", "2/4"),
    (0, 0.0, "0", "-0"),
    (-1.5, "-3/2"),
    (2, "4/2", 2.0),
)


@st.composite
def _game_documents(draw) -> dict:
    """Game JSON with profiles in shuffled key order, entries with shuffled
    field order, several spellings per value, 1-strategy players common,
    and winners absent everywhere, present everywhere, or on some rows."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    strategies = [["abc"[k] for k in range(size)] for size in sizes]
    values = draw(st.lists(st.sampled_from(_SPELLINGS), min_size=1, max_size=4, unique=True))
    spelling = st.sampled_from([u for value in values for u in value])
    winners = draw(st.sampled_from(["absent", "present", "some"]))
    keys = draw(st.permutations([",".join(names) for names in product(*strategies)]))
    outcomes = {}
    for key in keys:
        fields = [
            ("label", draw(st.sampled_from(["p", "q", "r"]))),
            ("utils", [draw(spelling) for _ in sizes]),
        ]
        if winners == "present" or (winners == "some" and draw(st.booleans())):
            names = st.lists(st.sampled_from("xyz"), min_size=1, max_size=4)
            fields.append(("winners", draw(names)))
        elif winners == "some" and draw(st.booleans()):
            fields.append(("winners", None))
        outcomes[key] = dict(draw(st.permutations(fields)))
    return {"players": len(sizes), "strategies": strategies, "outcomes": outcomes}


def _assert_same_store(got, want) -> None:
    assert got == want
    for name in ("codes", "label_codes", "winners"):
        assert getattr(got, name) is None or getattr(got, name).dtype == getattr(want, name).dtype


@given(_game_documents())
@settings(max_examples=200, deadline=None)
def test_game_from_dict_equals_the_record_oracle(data):
    game = game_from_dict(data)
    want = game_from_records(data)
    assert game.form == want.form
    _assert_same_store(game.outcomes, want.outcomes)


def test_each_distinct_utility_spelling_is_converted_once(monkeypatch):
    """Counted rather than timed: a 6^4 game (5 184 utilities) spelled five
    ways converts five values."""
    spellings = [1, "1", 1.0, "1/2", 0]
    strategies = [list("abcdef")] * 4
    outcomes = {
        ",".join(names): {"label": "x", "utils": [spellings[(row + p) % 5] for p in range(4)]}
        for row, names in enumerate(product(*strategies))
    }
    calls = []
    to_fraction = games.to_fraction

    def counted(value):
        calls.append(value)
        return to_fraction(value)

    monkeypatch.setattr(games, "to_fraction", counted)
    game = game_from_dict({"players": 4, "strategies": strategies, "outcomes": outcomes})
    assert len(calls) == 5
    assert game.outcomes.values == (0, Fraction(1, 2), 1)


_SMALL = {
    "players": 2,
    "strategies": [["a", "b"], ["x", "y"]],
    "outcomes": {
        "a,x": {"label": "ax", "utils": [1, 0]},
        "a,y": {"label": "ay", "utils": [0, 1]},
        "b,x": {"label": "bx", "utils": [1, 1]},
        "b,y": {"label": "by", "utils": [0, 0]},
    },
}


def _rename(table: dict, old: str, new: str) -> None:
    table[new] = table.pop(old)


# (how to break `_SMALL["outcomes"]`, the error message).  The messages and
# which of several errors is reported are the reader's contract: bad keys
# and entries in JSON key order, then missing profiles in profile order.
_GAME_ERRORS = {
    "bad key": (
        lambda o: _rename(o, "a,x", "a;x"),
        "outcome key 'a;x': expected 2 strategy names, got 1",
    ),
    "unknown name": (
        lambda o: _rename(o, "a,x", "a,z"),
        "outcome key 'a,z': player 2 has no strategy named 'z'",
    ),
    "key arity": (
        lambda o: _rename(o, "a,x", "a,x,x"),
        "outcome key 'a,x,x': expected 2 strategy names, got 3",
    ),
    "missing label": (lambda o: o["a,y"].pop("label"), "outcome 'a,y' is missing 'label'"),
    "missing utils": (lambda o: o["a,y"].pop("utils"), "outcome 'a,y' is missing 'utils'"),
    "entry not an object": (
        lambda o: o.update({"a,y": [1, 2]}),
        "outcome 'a,y' must be a JSON object",
    ),
    "label not a string": (
        lambda o: o["a,y"].update(label=3),
        "outcome 'a,y': label must be a string",
    ),
    "utils not a list": (
        lambda o: o["a,y"].update(utils="1,2"),
        "outcome 'a,y': need a list of 2 utilities",
    ),
    "utility count": (
        lambda o: o["a,y"].update(utils=[1, 2, 3]),
        "outcome 'a,y': need a list of 2 utilities",
    ),
    "bool utility": (
        lambda o: o["a,y"].update(utils=[1, True]),
        "outcome 'a,y': not a utility value: True",
    ),
    "null utility": (
        lambda o: o["a,y"].update(utils=[None, 1]),
        "outcome 'a,y': not a utility value: None",
    ),
    "list utility": (
        lambda o: o["a,y"].update(utils=[1, [1]]),
        "outcome 'a,y': not a utility value: [1]",
    ),
    "bad literal": (
        lambda o: o["a,y"].update(utils=[1, "1/0"]),
        "outcome 'a,y': bad rational literal '1/0'",
    ),
    "winners not a list": (
        lambda o: o["a,y"].update(winners="p"),
        "outcome 'a,y': winners must be a list of names",
    ),
    "empty winners": (
        lambda o: o["a,y"].update(winners=[]),
        "outcome 'a,y': winner set, when present, must be non-empty",
    ),
    "missing profile": (lambda o: o.pop("b,x"), "no outcome for profile 'b,x'"),
    "bad utility before a later bad label": (
        lambda o: (o["a,x"].update(utils=[1, "x"]), o["a,y"].update(label=1)),
        "outcome 'a,x': bad rational literal 'x'",
    ),
    "bad utility before empty winners": (
        lambda o: o["a,x"].update(utils=[1, "x"], winners=[]),
        "outcome 'a,x': bad rational literal 'x'",
    ),
    "bad entry before a missing profile": (
        lambda o: (o.pop("a,x"), o["b,y"].update(utils=[None, 1])),
        "outcome 'b,y': not a utility value: None",
    ),
    "a utility seen before breaks a later entry": (
        lambda o: (o["a,x"].update(utils=[True, 0]), o["a,y"].update(utils=[True, 0])),
        "outcome 'a,x': not a utility value: True",
    ),
}


@pytest.mark.parametrize("case", sorted(_GAME_ERRORS))
def test_game_from_dict_error_messages(case):
    breaks, message = _GAME_ERRORS[case]
    data = copy.deepcopy(_SMALL)
    breaks(data["outcomes"])
    with pytest.raises(FormatError) as got:
        game_from_dict(data)
    assert str(got.value) == message


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


@pytest.mark.parametrize("ballot", [5, ["a", "b", "c"], {"a": 1, "b": 2, "c": 3}, None])
def test_voting_spec_ballots_must_be_strings(ballot):
    # A list or an object of the alternatives once read as a ballot.
    data = {**_spec("plurality"), "ballots": [ballot, "abc"]}
    with pytest.raises(FormatError, match="each ballot must be a string"):
        voting_spec_from_dict(data)


@pytest.mark.parametrize("tiebreak", [3, ["a", "b", "c"], False])
def test_voting_spec_tiebreak_must_be_a_string_or_null(tiebreak):
    with pytest.raises(FormatError, match="tiebreak must be a string or null"):
        voting_spec_from_dict({**_spec("plurality"), "tiebreak": tiebreak})
    rule, _ = voting_spec_from_dict({**_spec("plurality"), "tiebreak": None})
    assert rule == Plurality(("a", "b", "c"))


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


@pytest.mark.parametrize(
    "breaks, message",
    [
        (
            lambda d: d["forms"][1]["outcomes"]["c,d"].update(utils=[True, 1]),
            "outcome 'c,d': not a utility value: True",
        ),
        (
            lambda d: d["forms"][1]["outcomes"]["d,c"].update(winners=[]),
            "outcome 'd,c': winner set, when present, must be non-empty",
        ),
        (
            lambda d: d["forms"][1]["outcomes"]["d,d"].update(utils=[1]),
            "outcome 'd,d': need a list of 2 utilities",
        ),
        # The first bad world wins, whether the world or its entry is bad.
        (
            lambda d: (
                d["forms"][0]["outcomes"]["c,c"].update(utils=[None, 1]),
                d["worlds"].__setitem__(1, ["NoSuchForm", "c,c"]),
            ),
            "outcome 'c,c': not a utility value: None",
        ),
        (
            lambda d: (
                d["forms"][1]["outcomes"]["c,d"].update(utils=[None, 1]),
                d["worlds"].__setitem__(1, ["NoSuchForm", "c,c"]),
            ),
            "model: world references unknown form 'NoSuchForm'",
        ),
        (
            lambda d: d["worlds"].__setitem__(0, [["Gr"], "c,c"]),
            "model: world references unknown form ['Gr']",
        ),
        (
            lambda d: d["worlds"].__setitem__(0, ["Gr", 5]),
            "world ['Gr', 5]: profile key must be a string",
        ),
    ],
)
def test_intensional_from_dict_outcome_errors(breaks, message):
    model, _ = commitment_confusion()
    data = json.loads(json.dumps(intensional_to_dict(model)))
    breaks(data)
    with pytest.raises(FormatError) as got:
        intensional_from_dict(data)
    assert str(got.value) == message


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
    with pytest.raises(TypeError):
        ast_to_dict("not an ast")
    with pytest.raises(TypeError):
        ast_to_dict((Concrete("c"),))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_ast_to_dict_matches_the_per_class_table(seed):
    """Formulas, programs, vectors, terms and coalition formulas: the same
    dicts as the per-class table, keys in the same order."""
    rng = random.Random(seed)
    game = vote3_game()
    sig = Signature.from_game(game)
    program = random_program(rng, sig, 3)
    vector = Vector([Concrete("a"), ADV, CUR])
    for node in (
        random_formula(rng, sig, 4),
        program,
        random_cl_formula(rng, game, 4),
        vector,
        *vector.terms,
    ):
        got, want = ast_to_dict(node), ast_oracle.ast_to_dict(node)
        assert json.dumps(got) == json.dumps(want)
