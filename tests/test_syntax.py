"""AST constructors, operator sugar, and the renderer's minimal parentheses."""

from __future__ import annotations

import copy
import pickle
import random
import sys
from dataclasses import replace
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
    Signature,
    Top,
    UtilEq,
    Vector,
    VectorAtom,
    Winner,
    render,
)
from stratlogic.syntax import (
    BOT,
    TOP,
    Agent,
    AgentConv,
    Choice,
    Seq,
    Star,
    Test as ProgTest,
    Vec,
    conj,
    disj,
)
from stratlogic import syntax
from stratlogic.axioms import ALL_SCHEMAS, default_pool, instantiate_many
from stratlogic.catalog import prisoners_dilemma, vote3_game

from builders import bare_signature, choice, node_objects, seq
from gens import random_formula, random_program, random_vector
import render_oracle


def _pd_sig() -> Signature:
    return Signature.from_game(prisoners_dilemma())


# --------------------------------------------------------------------------
# Construction and validation


def test_vector_needs_two_positions():
    with pytest.raises(ValueError):
        Vector([Concrete("a")])
    Vector([Concrete("a"), ADV])  # fine


def test_vector_determined():
    assert Vector([Concrete("a"), CUR]).determined()
    assert not Vector([Concrete("a"), ADV]).determined()


def test_utileq_coerces_to_fraction():
    f = UtilEq(1, 0.5)
    assert f.value == Fraction(1, 2)
    assert UtilEq(2, "3/4").value == Fraction(3, 4)


def test_operator_sugar():
    p, q = Label("p"), Label("q")
    assert ~p == Not(p)
    assert (p & q) == And(p, q)
    assert (p | q) == Or(p, q)
    assert (p >> q) == Implies(p, q)
    a, b = Agent(1), Agent(2)
    assert (a + b) == Choice(a, b)


def test_conj_disj_conventions():
    p, q, r = Label("p"), Label("q"), Label("r")
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([p]) == p
    assert disj([p]) == p
    assert conj([p, q, r]) == And(And(p, q), r)
    assert disj([p, q]) == Or(p, q)


def test_seq_choice_helpers():
    a, b, c = Agent(1), Agent(2), AgentConv(1)
    assert seq(a) == a
    assert seq(a, b, c) == Seq(Seq(a, b), c)
    assert choice(a, b) == Choice(a, b)


def test_asts_are_hashable_and_comparable():
    x = Box(Star(Agent(1)), UtilEq(1, 2))
    y = Box(Star(Agent(1)), UtilEq(1, 2))
    assert x == y
    assert hash(x) == hash(y)
    assert x != Diamond(Star(Agent(1)), UtilEq(1, 2))


# --------------------------------------------------------------------------
# Signatures


def test_signature_from_pd():
    sig = _pd_sig()
    assert sig.strategy_sets == (("c", "d"), ("c", "d"))
    assert sig.util_range == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
    assert sig.alternatives is None


def test_signature_from_voting_game():
    sig = Signature.from_game(vote3_game())
    assert sig.alternatives == ("a", "b", "c")
    assert sig.util_range == (Fraction(0), Fraction(1), Fraction(2))


def test_signature_from_form_has_no_valuation_data():
    sig = bare_signature(prisoners_dilemma().form)
    assert sig.util_range is None and sig.alternatives is None


def test_signature_hash_is_computed_once_and_not_pickled(monkeypatch):
    sig = Signature.from_game(vote3_game())
    fields = (sig.strategy_sets, sig.util_range, sig.alternatives)
    h = hash(sig)
    assert h == hash(fields)
    # The kept hash answers without touching the utility range again.
    monkeypatch.setattr(Fraction, "__hash__", lambda self: pytest.fail("rehashed"))
    assert hash(sig) == h
    monkeypatch.undo()
    back = pickle.loads(pickle.dumps(sig))
    assert back._h is None
    assert back == sig and hash(back) == h
    assert replace(sig, alternatives=None)._h is None


# --------------------------------------------------------------------------
# Rendering: hand cases


def test_render_vector_atom():
    assert render(VectorAtom(Vector([Concrete("c"), Concrete("d")]))) == "(c,d)"
    assert render(VectorAtom(Vector([ADV, CUR, Concrete("b")]))) == "(??,!!,b)"


def test_render_box_choice():
    f = Box(
        Choice(
            Vec(Vector([Concrete("c"), ADV])),
            Vec(Vector([Concrete("d"), ADV])),
        ),
        Winner("a"),
    )
    assert render(f) == "[(c,??)+(d,??)] win(a)"


def test_render_negated_conjunction():
    assert render(Not(And(TOP, TOP))) == "~(T & T)"


def test_render_payoff_atoms():
    assert render(UtilEq(2, 3)) == "u2=3"
    assert render(UtilEq(1, Fraction(-2, 3))) == "u1=-2/3"


def test_render_label_and_winner_quoting():
    assert render(Label("ok")) == "label(ok)"
    assert render(Label("a,b")) == 'label("a,b")'
    assert render(Winner("x_1")) == "win(x_1)"
    assert render(Winner("two words")) == 'win("two words")'
    with pytest.raises(ValueError):
        render(Label('has"quote'))


# --------------------------------------------------------------------------
# Rendering: minimal parentheses


def test_and_binds_tighter_than_or():
    p, q, r = Label("p"), Label("q"), Label("r")
    assert render(Or(And(p, q), r)) == "label(p) & label(q) | label(r)"
    assert render(And(Or(p, q), r)) == "(label(p) | label(q)) & label(r)"


def test_implies_is_right_associative():
    p, q, r = Label("p"), Label("q"), Label("r")
    assert render(Implies(p, Implies(q, r))) == "label(p) -> label(q) -> label(r)"
    assert render(Implies(Implies(p, q), r)) == "(label(p) -> label(q)) -> label(r)"


def test_iff_is_loosest():
    p, q, r = Label("p"), Label("q"), Label("r")
    assert render(Iff(p, Iff(q, r))) == "label(p) <-> label(q) <-> label(r)"
    assert render(Iff(Implies(p, q), r)) == "label(p) -> label(q) <-> label(r)"
    assert render(Implies(Iff(p, q), r)) == "(label(p) <-> label(q)) -> label(r)"


def test_negation_parenthesizes_binaries_only():
    p, q = Label("p"), Label("q")
    assert render(Not(Not(p))) == "~~label(p)"
    assert render(Not(Or(p, q))) == "~(label(p) | label(q))"
    assert render(Not(Box(Agent(1), p))) == "~[ag1] label(p)"


def test_box_body_is_unary_context():
    p, q = Label("p"), Label("q")
    assert render(Box(Agent(1), And(p, q))) == "[ag1] (label(p) & label(q))"
    assert render(Box(Agent(1), Not(p))) == "[ag1] ~label(p)"
    assert render(Diamond(Agent(2), p)) == "<ag2> label(p)"


def test_program_precedence_rendering():
    u, v = Vec(Vector([Concrete("c"), CUR])), Vec(Vector([Concrete("d"), ADV]))
    w = Agent(1)
    assert render(Choice(Seq(u, v), w)) == "(c,!!);(d,??)+ag1"
    assert render(Seq(Choice(u, v), w)) == "((c,!!)+(d,??));ag1"
    assert render(Star(Seq(u, w))) == "((c,!!);ag1)*"
    assert render(Star(w)) == "ag1*"
    assert render(Star(Star(w))) == "ag1**"
    assert render(AgentConv(2)) == "ag2^"


def test_test_program_rendering():
    p, q = Label("p"), Label("q")
    assert render(ProgTest(p)) == "?label(p)"
    assert render(ProgTest(And(p, q))) == "?(label(p) & label(q))"
    assert render(Seq(ProgTest(UtilEq(1, 0)), Vec(Vector([Concrete("c"), CUR])))) == (
        "?u1=0;(c,!!)"
    )


# --------------------------------------------------------------------------
# Vectors double as atoms and as programs without notation clashes


def test_vector_as_formula_and_program_render_alike():
    vec = Vector([Concrete("c"), ADV])
    assert render(VectorAtom(vec)) == render(Vec(vec)) == "(c,??)"


def test_render_is_deterministic():
    rng = random.Random(3)
    sig = Signature.from_game(vote3_game())
    for _ in range(50):
        f = random_formula(rng, sig, 4)
        assert render(f) == render(f)


# --------------------------------------------------------------------------
# Rendering against the plain recursive renderer


@given(st.integers(0, 2**32 - 1), st.sampled_from([_pd_sig(), Signature.from_game(vote3_game())]))
@settings(max_examples=40, deadline=None)
def test_render_matches_the_recursive_oracle(seed, sig):
    rng = random.Random(seed)
    for tree in (random_formula(rng, sig, 6), random_program(rng, sig, 6)):
        assert render(tree) == render_oracle.render(tree)
    # One vector object under a box, a diamond, an atom and a test: its
    # spelling is made once and reused, and a pickled or copied vector
    # carries none and makes its own.
    vec = random_vector(rng, sig)
    body = random_formula(rng, sig, 2)

    def sharing(v):
        return And(
            Box(Vec(v), VectorAtom(v)),
            Diamond(Seq(ProgTest(VectorAtom(v)), Star(Vec(v))), Box(Vec(v), body)),
        )

    assert vec._text is None
    assert render(sharing(vec)) == render_oracle.render(sharing(vec))
    assert vec._text == render_oracle.vector(vec)
    for other in (pickle.loads(pickle.dumps(vec)), copy.copy(vec)):
        assert other == vec and other._text is None
        assert render(sharing(other)) == render(sharing(vec))
        assert other._text == vec._text


# --------------------------------------------------------------------------
# Kept spellings: atoms, vector and agent programs, and `~`, `[p]`, `<p>`


def _shared_tree(rng: random.Random, sig: Signature):
    """A random formula in which subtrees recur by identity under different
    parents, and every node of it: each new node is built over earlier
    ones, as `axioms.instantiate_many` shares its boxes and atoms."""
    nodes = [random_formula(rng, sig, 1) for _ in range(4)]
    vector = random_vector(rng, sig)
    programs = [Vec(vector), Agent(1), AgentConv(2), Star(Vec(vector))]
    for _ in range(14):
        a, b = rng.choice(nodes), rng.choice(nodes)
        roll = rng.random()
        if roll < 0.25:
            node = Not(a)
        elif roll < 0.55:
            node = rng.choice((Box, Diamond))(rng.choice(programs), a)
        elif roll < 0.65:
            node = Box(Seq(ProgTest(b), rng.choice(programs)), a)
        else:
            node = rng.choice((And, Or, Implies, Iff))(a, b)
        nodes.append(node)
    return nodes[-1], nodes


@given(st.integers(0, 2**32 - 1), st.sampled_from([_pd_sig(), Signature.from_game(vote3_game())]))
@settings(max_examples=25, deadline=None)
def test_kept_spellings_match_the_oracle_in_any_order_and_context(seed, sig):
    """Subtrees are rendered first, in random order, alone and under parents
    that need parentheses around some of them, each twice, so that what the
    first rendering kept is read back by the second.  Then the whole tree."""
    rng = random.Random(seed)
    tree, nodes = _shared_tree(rng, sig)
    rng.shuffle(nodes)
    for node in nodes:
        for parent in (
            node, Not(node), And(node, TOP), Or(TOP, node), Implies(node, node),
            Iff(node, TOP), Box(Agent(2), node), Diamond(Star(Agent(1)), node),
        ):
            for _ in range(2):
                assert render(parent) == render_oracle.render(parent)
    for _ in range(2):
        assert render(tree) == render_oracle.render(tree)


def test_kept_spellings_are_made_once_and_never_copied():
    vec = Vector([Concrete("c"), Concrete("d")])
    atom = UtilEq(1, 2)
    node = Box(Vec(vec), Not(atom))
    assert (atom._text, vec._text, node.body._text) == (None, None, None)
    assert render(node) == "[(c,d)] ~u1=2"
    # An atom, a vector and a negation keep theirs; a box and the `Vec`
    # program keep none.
    assert (atom._text, vec._text, node.body._text) == ("u1=2", "(c,d)", "~u1=2")
    assert node._text is None and node.program._text is None
    assert not hasattr(node, "__dict__") and not hasattr(node.program, "__dict__")
    assert render(And(node, node)) == "[(c,d)] ~u1=2 & [(c,d)] ~u1=2"
    for other in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert other == node and hash(other) == hash(node)
        assert render(other) == render(node)
    deep = copy.deepcopy(node.body)
    assert deep == node.body and deep._text is None and deep.body._text is None
    assert pickle.loads(pickle.dumps(node.program)).vector._text is None


def test_ill_typed_trees_raise_under_kept_spellings():
    """A program where a formula belongs, or a formula where a program
    does, raises however much of the tree already keeps a spelling."""
    vec = Vector([Concrete("c"), Concrete("d")])
    atom = UtilEq(1, 2)
    for _ in range(2):  # the second time, `atom` and `vec` keep theirs
        for bad in (
            Box(atom, TOP), Box(TOP, atom), Not(Vec(vec)), Box(Vec(vec), Vec(vec)),
            Not(Not(Vec(vec))), Diamond(Agent(1), Not(Agent(1))), Not(Box(atom, TOP)),
            Box(Vec(vec), Not(Box(Not(atom), atom))), Box(Vec(vec), vec), Diamond(Vec(vec), vec),
            Not(vec), Box(Vec(vec), None),
        ):
            with pytest.raises(TypeError, match="cannot render"):
                render(bad)
            assert bad._text is None
        assert render(Box(Vec(vec), Not(atom))) == "[(c,d)] ~u1=2"


def test_a_deep_prefix_chain_renders_and_keeps_text_linear_in_its_length():
    assert sys.getrecursionlimit() <= 1000
    program = Vec(Vector([Concrete("c"), Concrete("d")]))
    node = UtilEq(1, 2)
    nodes, heads = [node, program], []
    for k in range(10_000):
        node = Not(node) if k % 3 else Box(program, node)
        nodes.append(node)
        heads.append("~" if k % 3 else "[(c,d)] ")
    want = "".join(reversed(heads)) + "u1=2"
    for _ in range(3):
        assert render(node) == want
        assert render(Not(And(node, TOP))) == "~(" + want + " & T)"
    kept = [n._text for n in nodes if n._text]
    assert sum(map(len, kept)) <= syntax._KEPT_LIMIT * len(nodes)
    assert max(map(len, kept)) <= syntax._KEPT_LIMIT
    # The spellings near the foot of the chain are kept.
    assert nodes[3]._text == want[-len(nodes[3]._text):] and len(nodes[3]._text) > 4


# --------------------------------------------------------------------------
# Depth gates: the renderer's loop never recurses


def test_deep_test_nests_render_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    node = TOP
    for _ in range(5_000):
        node = Box(ProgTest(node), TOP)
    assert render(node) == "[?" * 5_000 + "T" + "] T" * 5_000


def test_a_mixed_prefix_run_renders_and_keeps_only_short_negations():
    assert sys.getrecursionlimit() <= 1000
    vec = Vec(Vector([Concrete("c"), ADV]))
    heads = {0: "~", 1: "[(c,??)] ", 2: "<ag1> ", 3: "[ag2^] ", 4: "<(c,??)> "}
    node, nodes = UtilEq(1, 2), []
    for k in range(5_000):
        kind = k % 5
        node = (Not(node), Box(vec, node), Diamond(Agent(1), node),
                Box(AgentConv(2), node), Diamond(vec, node))[kind]
        nodes.append(node)
    want = "".join(heads[k % 5] for k in reversed(range(5_000))) + "u1=2"
    for _ in range(2):
        assert render(node) == want
    length = len("u1=2")
    for k, n in enumerate(nodes):
        length += len(heads[k % 5])
        spelling = want[len(want) - length:]
        if isinstance(n, Not):
            assert n._text == (spelling if len(spelling) <= syntax._KEPT_LIMIT else None), k
        else:
            assert n._text is None and not hasattr(n, "__dict__"), k


def test_a_negation_keeps_its_spelling_up_to_the_limit_and_not_beyond():
    for first, second, kept in ((26, 26, True), (26, 27, False)):
        vec = Vec(Vector([Concrete("a" * first), Concrete("b" * second)]))
        inner = Not(UtilEq(1, 2))
        outer = Not(Box(vec, inner))
        text = render(outer)
        assert text == f"~[({'a' * first},{'b' * second})] ~u1=2"
        assert len(text) == syntax._KEPT_LIMIT + (not kept)
        assert outer._text == (text if kept else None)
        assert inner._text == "~u1=2" and outer.body._text is None
        assert render(outer) == text


@pytest.mark.parametrize("kind, joined", [(Seq, ";"), (Choice, "+")])
def test_long_program_chains_render_at_the_default_recursion_limit(kind, joined):
    assert sys.getrecursionlimit() <= 1000
    step = Agent(1)
    left = right = step
    for _ in range(5_000):
        left, right = kind(left, step), kind(step, right)
    assert render(left) == joined.join(["ag1"] * 5_001)
    assert render(right) == ("ag1" + joined + "(") * 4_999 + "ag1" + joined + "ag1" + ")" * 4_999
    star = step
    for _ in range(5_000):
        star = Star(star)
    assert render(star) == "ag1" + "*" * 5_000
    assert render(Star(left)) == "(" + render(left) + ")*"


def test_rendering_axiom_instances_keeps_each_spelling_once_and_none_on_modalities(monkeypatch):
    """The pool's atoms and negations, spelled once for the `about`
    strings, are never spelled again however many instances share them;
    any other vector is spelled once; and no box or diamond keeps text."""
    sig = Signature.from_game(vote3_game())
    instances = instantiate_many(ALL_SCHEMAS, sig)
    pool = default_pool(sig)
    roots = [instance.formula for instance in instances]
    nodes = {id(n): n for root in roots for n in node_objects(root)}.values()
    pooled = [n for n in nodes if n in pool]
    assert pooled and all(n._text is not None for n in pooled)
    before = {id(n): n._text for n in pooled}
    spelled = []
    real_vector, real_label = syntax._render_vector, syntax._render_label_arg
    monkeypatch.setattr(syntax, "_render_vector", lambda v: spelled.append(v) or real_vector(v))
    monkeypatch.setattr(syntax, "_render_label_arg", lambda t: spelled.append(t) or real_label(t))
    for _ in range(2):
        for root in roots:
            assert render(root) == render_oracle.render(root)
    assert all(isinstance(v, Vector) for v in spelled)
    assert len({id(v) for v in spelled}) == len(spelled)
    assert all(n._text is before[id(n)] for n in pooled)
    for n in nodes:
        if isinstance(n, (Box, Diamond)):
            assert n._text is None and not hasattr(n, "__dict__")
        elif isinstance(n, Not) and n._text is not None:
            assert n._text == render_oracle.render(n) and len(n._text) <= syntax._KEPT_LIMIT
