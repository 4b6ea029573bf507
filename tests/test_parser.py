"""Concrete-syntax parsing: hand cases, precedence, errors, round-trips."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogic import (
    ADV,
    CUR,
    And,
    Box,
    Concrete,
    Diamond,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    ParseError,
    Signature,
    Top,
    UtilEq,
    Vector,
    VectorAtom,
    Winner,
    parse,
    parse_cl,
    parse_formula,
    parse_program,
    render,
    render_cl,
)
from stratlogic.coalition import CLAnd, CLAtom, CLBox, CLNot, CLTop, cl_disj
from stratlogic.syntax import (
    BOT,
    Agent,
    AgentConv,
    Choice,
    Seq,
    Star,
    Test as ProgTest,
    Vec,
)
from stratlogic.catalog import prisoners_dilemma, vote3_game

from builders import bare_signature
from gens import random_formula, random_program

PD = Signature.from_game(prisoners_dilemma())
VOTE = Signature.from_game(vote3_game())


def _vec(*names):
    terms = []
    for name in names:
        if name == "??":
            terms.append(ADV)
        elif name == "!!":
            terms.append(CUR)
        else:
            terms.append(Concrete(name))
    return Vector(terms)


# --------------------------------------------------------------------------
# Hand cases


def test_parse_box_vector_payoff():
    assert parse_formula("[(d,d)] u1=1", PD) == Box(Vec(_vec("d", "d")), UtilEq(1, 1))


def test_parse_diamond_adversary():
    assert parse_formula("<(c,??)> u2=2", PD) == Diamond(
        Vec(_vec("c", "??")), UtilEq(2, 2)
    )


def test_parse_star_with_test_and_current():
    got = parse_formula("[((?u1=0);(c,!!))*] T", PD)
    want = Box(Star(Seq(ProgTest(UtilEq(1, 0)), Vec(_vec("c", "!!")))), Top())
    assert got == want


def test_parse_vector_atom_vs_grouping():
    assert parse_formula("(c,d)", PD) == VectorAtom(_vec("c", "d"))
    assert parse_formula("(T)", PD) == Top()
    assert parse_formula("(u1=0 & T)", PD) == And(UtilEq(1, 0), Top())


def test_parse_top_and_atoms():
    assert parse_formula("T", PD) == Top()
    assert parse_formula("label(ok)", PD) == Label("ok")
    assert parse_formula('label("two words")', PD) == Label("two words")
    assert parse_formula("win(a)", VOTE) == Winner("a")


def test_parse_rationals():
    assert parse_formula("u1=3/2", VOTE) == UtilEq(1, Fraction(3, 2))
    assert parse_formula("u2=-2/3", VOTE) == UtilEq(2, Fraction(-2, 3))


def test_payoff_comparisons_expand_over_util_range():
    # U = {0,1,2,3} for PD
    assert parse_formula("u2>=2", PD) == Or(UtilEq(2, 2), UtilEq(2, 3))
    assert parse_formula("u1>3", PD) == BOT
    assert parse_formula("u1>=0", PD) == Or(
        Or(Or(UtilEq(1, 0), UtilEq(1, 1)), UtilEq(1, 2)), UtilEq(1, 3)
    )


def test_payoff_comparison_requires_util_range():
    bare = bare_signature(prisoners_dilemma().form)
    assert parse_formula("u1=2", bare) == UtilEq(1, 2)  # "=" is fine
    with pytest.raises(ParseError):
        parse_formula("u1>=2", bare)


# --------------------------------------------------------------------------
# Precedence and associativity


def test_formula_precedence():
    f = parse_formula("~u1=0 & u2=0", PD)
    assert f == And(Not(UtilEq(1, 0)), UtilEq(2, 0))
    f = parse_formula("u1=0 & u2=0 | u1=1", PD)
    assert f == Or(And(UtilEq(1, 0), UtilEq(2, 0)), UtilEq(1, 1))
    f = parse_formula("u1=0 -> u2=0 -> u1=1", PD)
    assert f == Implies(UtilEq(1, 0), Implies(UtilEq(2, 0), UtilEq(1, 1)))
    f = parse_formula("u1=0 <-> u2=0 <-> u1=1", PD)
    assert f == Iff(UtilEq(1, 0), Iff(UtilEq(2, 0), UtilEq(1, 1)))
    f = parse_formula("u1=0 -> u2=0 <-> u1=1", PD)
    assert f == Iff(Implies(UtilEq(1, 0), UtilEq(2, 0)), UtilEq(1, 1))


def test_modality_binds_like_negation():
    f = parse_formula("[ag1] u1=0 & u2=0", PD)
    assert f == And(Box(Agent(1), UtilEq(1, 0)), UtilEq(2, 0))
    f = parse_formula("<ag2^> ~u1=0", PD)
    assert f == Diamond(AgentConv(2), Not(UtilEq(1, 0)))


def test_program_precedence():
    p = parse_program("(c,??);(d,??)+ag1", PD)
    assert p == Choice(Seq(Vec(_vec("c", "??")), Vec(_vec("d", "??"))), Agent(1))
    p = parse_program("((c,??)+(d,??));ag1", PD)
    assert p == Seq(Choice(Vec(_vec("c", "??")), Vec(_vec("d", "??"))), Agent(1))
    p = parse_program("(c,??)*;(d,??)", PD)
    assert p == Seq(Star(Vec(_vec("c", "??"))), Vec(_vec("d", "??")))
    p = parse_program("ag1**", PD)
    assert p == Star(Star(Agent(1)))


def test_test_binds_following_unary_formula():
    p = parse_program("?u1=0;(c,!!)", PD)
    assert p == Seq(ProgTest(UtilEq(1, 0)), Vec(_vec("c", "!!")))
    p = parse_program("?(u1=0 & u2=0);ag1", PD)
    assert p == Seq(ProgTest(And(UtilEq(1, 0), UtilEq(2, 0))), Agent(1))


# --------------------------------------------------------------------------
# Errors


def test_unknown_strategy_name_rejected():
    with pytest.raises(ParseError):
        parse_formula("(c,x)", PD)


def test_vector_arity_checked():
    with pytest.raises(ParseError):
        parse_formula("(c,c,c)", PD)


def test_unknown_alternative_rejected():
    with pytest.raises(ParseError):
        parse_formula("win(z)", VOTE)


def test_winner_atom_needs_alternatives():
    with pytest.raises(ParseError):
        parse_formula("win(a)", PD)


def test_unknown_player_rejected():
    with pytest.raises(ParseError):
        parse_formula("u9=0", PD)
    with pytest.raises(ParseError):
        parse_program("ag9", PD)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("T T", PD)


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_formula("T &\n  (c,", PD)
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_formula("u1=", PD)
    assert err.value.line == 1 and err.value.col == 4


def test_unbalanced_and_stray_tokens():
    for text in ["(T", "[ag1 T", "<(c,??) u1=0", "u1=0 &", "*", "label(", '"dangling']:
        with pytest.raises(ParseError):
            parse_formula(text, PD)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_formula("u1=1/0", PD)


def test_thousand_nested_groups_parse_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    deep = lambda text: "(" * 1000 + text + ")" * 1000
    assert parse_formula(deep("T"), PD) == Top()
    assert parse_formula("~" + deep("u1=0 & T") + " | T", PD) == parse_formula(
        "~(u1=0 & T) | T", PD
    )
    assert parse_formula("<" + deep("(c,??)") + "*>T", PD) == parse_formula("<(c,??)*>T", PD)
    assert parse_program("?" + deep("T") + ";ag1", PD) == parse_program("?T;ag1", PD)
    assert parse_cl("[C{1}]" + deep("u1=0 | T"), PD) == parse_cl("[C{1}](u1=0 | T)", PD)
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_formula(deep("T")[:-1], PD)


# --------------------------------------------------------------------------
# Coalition-logic syntax


def test_parse_cl_box():
    f = parse_cl("[C {1,2}] u1=0", PD)
    assert f == CLBox(frozenset({1, 2}), CLAtom(UtilEq(1, 0)))
    f = parse_cl("[C {}] u1=0", PD)
    assert f == CLBox(frozenset(), CLAtom(UtilEq(1, 0)))


def test_parse_cl_connectives():
    f = parse_cl("~(T & u1=0)", PD)
    assert f == CLNot(CLAnd(CLTop(), CLAtom(UtilEq(1, 0))))
    # "|" is sugar for the ~(~.. & ~..) encoding
    f = parse_cl("u1=0 | u2=0", PD)
    assert f == cl_disj([CLAtom(UtilEq(1, 0)), CLAtom(UtilEq(2, 0))])


def test_parse_cl_duplicate_member():
    with pytest.raises(ParseError):
        parse_cl("[C {1,1}] T", PD)
    with pytest.raises(ParseError):
        parse_cl("[C {9}] T", PD)


def test_cl_render_round_trip():
    for text in ["[C {1,2}] (u1=0 & ~u2=3)", "~[C {}] T", "[C {2}] [C {1}] u1=1"]:
        f = parse_cl(text, PD)
        assert parse_cl(render_cl(f), PD) == f


# --------------------------------------------------------------------------
# Round trips


def test_round_trip_hand_formulas():
    texts = [
        "[(d,d)] u1=1",
        "<(c,??)> u2=2",
        "[((?u1=0);(c,!!))*] T",
        "~(T & T)",
        "(c,d) -> <ag1> (d,!!)",
        "[ag2^] (u1=0 | u2=3)",
    ]
    for text in texts:
        ast = parse_formula(text, PD)
        assert parse_formula(render(ast), PD) == ast


def test_round_trip_seeded_sweep():
    rng = random.Random(2024)
    for _ in range(150):
        f = random_formula(rng, VOTE, 4)
        assert parse(render(f), VOTE, "formula") == f
    for _ in range(100):
        p = random_program(rng, VOTE, 4)
        assert parse(render(p), VOTE, "program") == p


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_round_trip_hypothesis(seed):
    rng = random.Random(seed)
    f = random_formula(rng, PD, 4)
    assert parse_formula(render(f), PD) == f


def test_parse_kind_dispatch():
    assert parse("T", PD, "formula") == Top()
    assert parse("ag1", PD, "program") == Agent(1)
    assert parse("T", PD, "cl") == CLTop()
    with pytest.raises(ValueError):
        parse("T", PD, "nonsense")
