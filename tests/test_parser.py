"""Concrete-syntax parsing: hand cases, precedence, errors, round-trips."""

from __future__ import annotations

import pickle
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

from stratlogic import parser as parser_module

from builders import bare_signature
from gens import random_formula, random_program
import lexer_oracle

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
    assert parse("[(d,d)] u1=1", PD, "formula") == Box(Vec(_vec("d", "d")), UtilEq(1, 1))


def test_parse_diamond_adversary():
    assert parse("<(c,??)> u2=2", PD, "formula") == Diamond(
        Vec(_vec("c", "??")), UtilEq(2, 2)
    )


def test_parse_star_with_test_and_current():
    got = parse("[((?u1=0);(c,!!))*] T", PD, "formula")
    want = Box(Star(Seq(ProgTest(UtilEq(1, 0)), Vec(_vec("c", "!!")))), Top())
    assert got == want


def test_parse_vector_atom_vs_grouping():
    assert parse("(c,d)", PD, "formula") == VectorAtom(_vec("c", "d"))
    assert parse("(T)", PD, "formula") == Top()
    assert parse("(u1=0 & T)", PD, "formula") == And(UtilEq(1, 0), Top())


def test_parse_top_and_atoms():
    assert parse("T", PD, "formula") == Top()
    assert parse("label(ok)", PD, "formula") == Label("ok")
    assert parse('label("two words")', PD, "formula") == Label("two words")
    assert parse("win(a)", VOTE, "formula") == Winner("a")


def test_parse_rationals():
    assert parse("u1=3/2", VOTE, "formula") == UtilEq(1, Fraction(3, 2))
    assert parse("u2=-2/3", VOTE, "formula") == UtilEq(2, Fraction(-2, 3))


def test_payoff_comparisons_expand_over_util_range():
    # U = {0,1,2,3} for PD
    assert parse("u2>=2", PD, "formula") == Or(UtilEq(2, 2), UtilEq(2, 3))
    assert parse("u1>3", PD, "formula") == BOT
    assert parse("u1>=0", PD, "formula") == Or(
        Or(Or(UtilEq(1, 0), UtilEq(1, 1)), UtilEq(1, 2)), UtilEq(1, 3)
    )


def test_payoff_comparison_requires_util_range():
    bare = bare_signature(prisoners_dilemma().form)
    assert parse("u1=2", bare, "formula") == UtilEq(1, 2)  # "=" is fine
    with pytest.raises(ParseError):
        parse("u1>=2", bare, "formula")


# --------------------------------------------------------------------------
# Precedence and associativity


def test_formula_precedence():
    f = parse("~u1=0 & u2=0", PD, "formula")
    assert f == And(Not(UtilEq(1, 0)), UtilEq(2, 0))
    f = parse("u1=0 & u2=0 | u1=1", PD, "formula")
    assert f == Or(And(UtilEq(1, 0), UtilEq(2, 0)), UtilEq(1, 1))
    f = parse("u1=0 -> u2=0 -> u1=1", PD, "formula")
    assert f == Implies(UtilEq(1, 0), Implies(UtilEq(2, 0), UtilEq(1, 1)))
    f = parse("u1=0 <-> u2=0 <-> u1=1", PD, "formula")
    assert f == Iff(UtilEq(1, 0), Iff(UtilEq(2, 0), UtilEq(1, 1)))
    f = parse("u1=0 -> u2=0 <-> u1=1", PD, "formula")
    assert f == Iff(Implies(UtilEq(1, 0), UtilEq(2, 0)), UtilEq(1, 1))


def test_modality_binds_like_negation():
    f = parse("[ag1] u1=0 & u2=0", PD, "formula")
    assert f == And(Box(Agent(1), UtilEq(1, 0)), UtilEq(2, 0))
    f = parse("<ag2^> ~u1=0", PD, "formula")
    assert f == Diamond(AgentConv(2), Not(UtilEq(1, 0)))


def test_program_precedence():
    p = parse("(c,??);(d,??)+ag1", PD, "program")
    assert p == Choice(Seq(Vec(_vec("c", "??")), Vec(_vec("d", "??"))), Agent(1))
    p = parse("((c,??)+(d,??));ag1", PD, "program")
    assert p == Seq(Choice(Vec(_vec("c", "??")), Vec(_vec("d", "??"))), Agent(1))
    p = parse("(c,??)*;(d,??)", PD, "program")
    assert p == Seq(Star(Vec(_vec("c", "??"))), Vec(_vec("d", "??")))
    p = parse("ag1**", PD, "program")
    assert p == Star(Star(Agent(1)))


def test_test_binds_following_unary_formula():
    p = parse("?u1=0;(c,!!)", PD, "program")
    assert p == Seq(ProgTest(UtilEq(1, 0)), Vec(_vec("c", "!!")))
    p = parse("?(u1=0 & u2=0);ag1", PD, "program")
    assert p == Seq(ProgTest(And(UtilEq(1, 0), UtilEq(2, 0))), Agent(1))


# --------------------------------------------------------------------------
# Errors


def test_unknown_strategy_name_rejected():
    with pytest.raises(ParseError):
        parse("(c,x)", PD, "formula")


def test_vector_arity_checked():
    with pytest.raises(ParseError):
        parse("(c,c,c)", PD, "formula")
    with pytest.raises(ParseError, match=r"vector has 2 positions for 3 players \(line 1, column 3\)"):
        parse("~ (a,b)", VOTE, "formula")


def test_unknown_alternative_rejected():
    with pytest.raises(ParseError):
        parse("win(z)", VOTE, "formula")


def test_winner_atom_needs_alternatives():
    with pytest.raises(ParseError):
        parse("win(a)", PD, "formula")


def test_unknown_player_rejected():
    with pytest.raises(ParseError):
        parse("u9=0", PD, "formula")
    with pytest.raises(ParseError):
        parse("ag9", PD, "program")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("T T", PD, "formula")


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("T &\n  (c,", PD, "formula")
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("u1=", PD, "formula")
    assert err.value.line == 1 and err.value.col == 4


def test_unbalanced_and_stray_tokens():
    for text in ["(T", "[ag1 T", "<(c,??) u1=0", "u1=0 &", "*", "label(", '"dangling']:
        with pytest.raises(ParseError):
            parse(text, PD, "formula")


# Token fragments for random texts: names, numbers and every operator of the
# three grammars, blanks, newlines inside and outside string literals, stray
# characters and unterminated strings, and whole vector and payoff tokens,
# well formed or failing a check or out of place.
_FRAGMENTS = (
    "a", "b", "c", "d", "x_1", "u1", "u2", "u3", "ag1", "ag2", "win", "label", "T", "C",
    "0", "1", "12", "<->", "->", "??", "!!", ">=", "(", ")", "[", "]", "{", "}",
    "<", ">", ",", ";", "+", "*", "?", "~", "&", "|", "=", "^", "/", "-", "!",
    " ", "  ", "\t", "\r", "\n", " \n\t", "\r\n",
    '"a b"', '""', '"x\ny"', '"\n\n"', '"', '"open', '"o\np',
    "$", "\f", "#", ".", "\u00e9", "\v",
    "(c,d)", "(a,b,c)", "(??,!!)", "u1=1/2", "u2=-1", "u3=0",
    "(a,zz)", "(c,d,c)", "u9=1", "u1=1/0", "u1=2/", "win(a,b)", "[C{1}](c,d)",
)
_BLANKS = (" ", "\n", "\t\n", "\r\n", " \n ")


@st.composite
def _texts(draw):
    """A random text and a signature: a string of fragments, or the rendering
    of a random formula spread over lines, with fragments dropped in."""
    sig = draw(st.sampled_from([PD, VOTE]))
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map("".join)), sig
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    text = render(random_formula(rng, sig, 4))
    text = "".join(rng.choice(_BLANKS) if ch == " " else ch for ch in text)
    for fragment in draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=2)):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + fragment + text[at:]
    return text, sig


def _outcome(call):
    try:
        return "ok", call()
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    except Exception as exc:  # a non-syntax error, e.g. a GameError
        return type(exc).__name__, str(exc)


class _OracleLexedParser(parser_module._Parser):
    """The parser reading the oracle lexer's tokens and positions."""

    def __init__(self, text, signature):
        self._oracle = lexer_oracle.tokenize(text)
        self.tokens = [(t.kind, t.text, i) for i, t in enumerate(self._oracle)]
        self.pos = 0
        self.sig = signature

    def _error(self, message, tok):
        where = self._oracle[tok[2]]
        return ParseError(message, where.line, where.col)


def _parse_with_oracle_lexer(text, signature, kind):
    return _OracleLexedParser(text, signature).run(kind)


@given(_texts())
@settings(max_examples=600, deadline=None)
def test_lexer_matches_the_token_by_token_oracle(case):
    text, sig = case
    want = _outcome(lambda: lexer_oracle.tokenize(text))
    got = _outcome(lambda: parser_module._tokenize(text))
    if want[0] != "ok":
        assert got == want
        return
    tokens, matches = got[1]
    merged = lexer_oracle.merge_whole(want[1])
    assert [t[:2] for t in tokens] == [(t.kind, t.text) for t in merged]
    positions = [parser_module._position(matches, t[2]) for t in tokens]
    assert positions == [(t.line, t.col) for t in merged]
    for kind in ("formula", "program", "cl"):
        assert _outcome(lambda: parse(text, sig, kind)) == _outcome(
            lambda: _parse_with_oracle_lexer(text, sig, kind)
        )


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse("u1=1/0", PD, "formula")


def test_whole_tokens_are_kept_per_signature():
    sig = Signature.from_game(vote3_game())
    text = "[(a,??,!!)] u1=2 & <(a,??,!!)*> (b,c,a) | u1=2"
    first = parse(text, sig, "formula")
    second = parse(text, sig, "formula")
    assert second == first
    leaves = lambda f: (
        f.left.left.program.vector,
        f.left.left.body,
        f.left.right.program.body.vector,
        f.left.right.body.vector,
        f.right,
    )
    assert all(a is b for a, b in zip(leaves(first), leaves(second)))
    assert leaves(first)[0] is leaves(first)[2] and leaves(first)[1] is leaves(first)[4]
    table = dict(sig._spelled)
    assert set(table) == {"(a,??,!!)", "u1=2", "(b,c,a)"}
    parse(text, sig, "formula")
    assert sig._spelled == table
    # The table is no part of the signature's value.
    fresh = Signature.from_game(vote3_game())
    assert fresh == sig and hash(fresh) == hash(sig)
    back = pickle.loads(pickle.dumps(sig))
    assert back == sig and hash(back) == hash(sig) and back._spelled is None
    assert parse(text, fresh, "formula") == first
    assert parse(text, fresh, "formula").right is not first.right
    # A spelling valid under one signature is checked again under another.
    fewer = Signature((("a", "b"),) * 3, sig.util_range, sig.alternatives)
    with pytest.raises(ParseError, match=r"player 2 has no strategy named 'c' \(line 1, column 6\)"):
        parse("~ (b,c,a)", fewer, "formula")
    assert "(b,c,a)" not in fewer._spelled
    with pytest.raises(ParseError, match=r"no player 3 in scope \(line 1, column 1\)"):
        parse("u3=1", PD, "formula")


def test_payoff_spellings_kept_are_bounded_by_the_range():
    # PD's range is 0, 1, 2, 3; `u1=k/k` spells 1 in a new way for every k,
    # and `u2=k` names a value outside the range for k > 3.
    sig = Signature.from_game(prisoners_dilemma())
    for k in range(1, 20_001):
        assert parse(f"u1={k}/{k}", sig, "formula") == UtilEq(1, 1)
        assert parse(f"u2={k}", sig, "formula") == UtilEq(2, k)
    payoffs = [text for text in sig._spelled if text[0] != "("]
    assert len(payoffs) <= sig.n * len(sig.util_range)
    assert set(payoffs) == {"u2=1", "u2=2", "u2=3"}
    # Only the canonical spelling is kept, and a kept node is shared.
    assert parse("u1=1", sig, "formula") is parse("u1=1", sig, "formula")
    assert parse("u1=01", sig, "formula") == UtilEq(1, 1)
    assert "u1=01" not in sig._spelled and "u1=1" in sig._spelled
    # Without a known range no payoff spelling is kept.
    bare = Signature(sig.strategy_sets)
    assert parse("u1=1", bare, "formula") == UtilEq(1, 1)
    assert not bare._spelled


def test_thousand_nested_groups_parse_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    deep = lambda text: "(" * 1000 + text + ")" * 1000
    assert parse(deep("T"), PD, "formula") == Top()
    assert parse("~" + deep("u1=0 & T") + " | T", PD, "formula") == parse(
        "~(u1=0 & T) | T", PD, "formula")
    assert parse("<" + deep("(c,??)") + "*>T", PD, "formula") == parse("<(c,??)*>T", PD, "formula")
    assert parse("?" + deep("T") + ";ag1", PD, "program") == parse("?T;ag1", PD, "program")
    assert parse("[C{1}]" + deep("u1=0 | T"), PD, "cl") == parse("[C{1}](u1=0 | T)", PD, "cl")
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse(deep("T")[:-1], PD, "formula")


# --------------------------------------------------------------------------
# Coalition-logic syntax


def test_parse_cl_box():
    f = parse("[C {1,2}] u1=0", PD, "cl")
    assert f == CLBox(frozenset({1, 2}), CLAtom(UtilEq(1, 0)))
    f = parse("[C {}] u1=0", PD, "cl")
    assert f == CLBox(frozenset(), CLAtom(UtilEq(1, 0)))


def test_parse_cl_connectives():
    f = parse("~(T & u1=0)", PD, "cl")
    assert f == CLNot(CLAnd(CLTop(), CLAtom(UtilEq(1, 0))))
    # "|" is sugar for the ~(~.. & ~..) encoding
    f = parse("u1=0 | u2=0", PD, "cl")
    assert f == cl_disj([CLAtom(UtilEq(1, 0)), CLAtom(UtilEq(2, 0))])


def test_parse_cl_payoff_comparisons():
    # PD's utility range is 0, 1, 2, 3.
    def atoms(*values):
        return cl_disj([CLAtom(UtilEq(1, v)) for v in values])

    assert parse("u1>=2", PD, "cl") == atoms(2, 3)
    assert parse("u1>2", PD, "cl") == atoms(3)
    assert parse("u1>3", PD, "cl") == atoms()


def test_parse_cl_duplicate_member():
    with pytest.raises(ParseError):
        parse("[C {1,1}] T", PD, "cl")
    with pytest.raises(ParseError):
        parse("[C {9}] T", PD, "cl")


def test_cl_render_round_trip():
    for text in ["[C {1,2}] (u1=0 & ~u2=3)", "~[C {}] T", "[C {2}] [C {1}] u1=1"]:
        f = parse(text, PD, "cl")
        assert parse(render_cl(f), PD, "cl") == f


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
        ast = parse(text, PD, "formula")
        assert parse(render(ast), PD, "formula") == ast


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
    assert parse(render(f), PD, "formula") == f


def test_parse_kind_dispatch():
    assert parse("T", PD, "formula") == Top()
    assert parse("ag1", PD, "program") == Agent(1)
    assert parse("T", PD, "cl") == CLTop()
    with pytest.raises(ValueError):
        parse("T", PD, "nonsense")
