"""The syntax-node contract: structural equality, a hash computed once and
cached, pickling without the cache, and no recursion on deep or long trees."""

from __future__ import annotations

import pickle
import random
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from stratlogic import (
    ADV,
    CUR,
    Concrete,
    Label,
    MaslModel,
    Signature,
    UtilEq,
    Vector,
    VectorAtom,
    extension,
    parse,
    render,
)
from stratlogic.catalog import prisoners_dilemma, vote3_game
from stratlogic.coalition import (
    CLAnd,
    CLAtom,
    CLBox,
    CLNot,
    CLTop,
    cl_extension,
    render_cl,
    translate,
)
from stratlogic.jsonio import ast_to_dict
from stratlogic.models import pre
from stratlogic.syntax import (
    TOP,
    Agent,
    AgentConv,
    Box,
    Choice,
    Diamond,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    Seq,
    Star,
    Test as ProgTest,
    Vec,
    Winner,
    conj,
    disj,
)

from ast_oracle import expand
from gens import random_cl_formula, random_formula, random_game, random_program

PD = prisoners_dilemma()
PD_SIG = Signature.from_game(PD)
CHAIN = 10_000


@pytest.fixture()
def default_recursion_limit():
    """Run the test under the interpreter's default recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _pd_atoms():
    """Formulas of several node kinds, all true at c,c and all false at c,d,
    so that both their conjunction and their disjunction are contingent."""
    return [
        UtilEq(1, 2),
        Not(UtilEq(2, 3)),
        Label("cc"),
        VectorAtom(Vector((ADV, Concrete("c")))),
        Box(Vec(Vector((Concrete("c"), CUR))), Not(UtilEq(2, 3))),
    ]


def _operands(n: int) -> list:
    atoms = _pd_atoms()
    return [atoms[i % len(atoms)] for i in range(n)]


# --------------------------------------------------------------------------
# equality and hashing


def test_separately_built_trees_are_equal_with_equal_hashes():
    sig = Signature.from_game(vote3_game())
    for seed in range(40):
        build = random_formula if seed % 2 else random_program
        a = build(random.Random(seed), sig, depth=6)
        b = build(random.Random(seed), sig, depth=6)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)


def test_trees_differing_only_at_the_deepest_leaf_are_unequal():
    operands = _operands(200)
    chain = conj(operands)
    other = conj([UtilEq(1, 1)] + operands[1:])
    assert chain != other and not chain == other
    nest, other_nest = TOP, Label("cc")
    for _ in range(200):
        nest, other_nest = Not(nest), Not(other_nest)
    assert nest != other_nest


def test_hash_is_cached_on_first_use_and_covers_descendants():
    leaf = UtilEq(1, 2)
    tree = Not(Or(leaf, TOP))
    assert tree._h is None and leaf._h is None
    h = hash(tree)
    assert tree._h == h
    assert leaf._h == hash(UtilEq(1, 2))
    assert tree.body._h is not None


def test_nodes_are_slotted():
    vector = Vector((Concrete("c"), ADV, CUR))
    program = Seq(Choice(Vec(vector), ProgTest(TOP)), Star(Agent(1)))
    nodes = [
        vector, *vector.terms, Iff(Implies(Winner("a"), Label("x")), TOP),
        Diamond(AgentConv(2), UtilEq(1, 2)), Box(program, VectorAtom(vector)),
        program, CLBox({1}, CLAnd(CLNot(CLTop()), CLAtom(UtilEq(1, 0)))),
    ]
    while nodes:
        node = nodes.pop()
        assert not hasattr(node, "__dict__"), type(node).__name__
        nodes.extend(getattr(node, name) for name in node.__match_args__
                     if isinstance(getattr(node, name), Node))


def test_nodes_are_frozen_and_take_their_fields_by_name():
    box = Box(program=Vec(Vector((Concrete("c"), ADV))), body=Not(body=Winner(name="a")))
    assert box == Box(Vec(Vector((Concrete("c"), ADV))), Not(Winner("a")))
    assert box._h is None and box.body._text is None
    for node, name in ((box, "body"), (box, "_h"), (box.body, "body"), (box.body.body, "name"), (TOP, "_h")):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, None)


def test_different_node_kinds_are_unequal():
    assert conj([TOP, TOP]) != disj([TOP, TOP])
    assert UtilEq(1, 2) != Label("2")
    assert (UtilEq(1, 2) == "u1=2") is False


def test_pickle_round_trip_recomputes_the_hash():
    sig = Signature.from_game(vote3_game())
    for seed in range(20):
        node = random_formula(random.Random(seed), sig, depth=5)
        fresh = pickle.dumps(node)
        h = hash(node)
        # The cached hash is not part of the pickle.
        assert pickle.dumps(node) == fresh
        back = pickle.loads(fresh)
        assert back._h is None
        assert back == node and hash(back) == h


def test_cl_nodes_follow_the_same_contract():
    for seed in range(30):
        game = random_game(random.Random(seed))
        a = random_cl_formula(random.Random(seed), game, 4)
        b = random_cl_formula(random.Random(seed), game, 4)
        assert a is not b and a == b and hash(a) == hash(b)
        back = pickle.loads(pickle.dumps(a))
        assert back._h is None and back == a and hash(back) == hash(a)
    box = CLBox(frozenset({1, 2}), CLAtom(UtilEq(1, 0)))
    assert box == CLBox({2, 1}, CLAtom(UtilEq(1, 0)))
    assert box != CLBox(frozenset({1}), CLAtom(UtilEq(1, 0)))
    assert CLNot(CLTop()) != CLNot(CLAtom(Label("x")))


# --------------------------------------------------------------------------
# long chains and deep nests under the default recursion limit


def _left_spine(table: dict) -> list[int]:
    """The entries of a left-folded chain's operands in its `ast_to_dict`
    table, first to last, walked from the root."""
    nodes, k = table["nodes"], table["root"]
    rights = []
    while nodes[k]["node"] in ("And", "Or", "CLAnd"):
        rights.append(nodes[k]["right"])
        k = nodes[k]["left"]
    rights.append(k)
    return rights[::-1]


@pytest.mark.parametrize("fold,reduce", [(conj, np.logical_and), (disj, np.logical_or)])
def test_ten_thousand_operand_chains(default_recursion_limit, fold, reduce):
    operands = _operands(CHAIN)
    chain, twin = fold(operands), fold(_operands(CHAIN))
    assert hash(chain) == hash(twin)
    assert chain == twin
    assert chain != fold(operands[:-1] + [UtilEq(1, 1)])

    text = render(chain)
    assert text.count(" & " if fold is conj else " | ") == CHAIN - 1
    assert parse(text, PD_SIG) == chain

    table = ast_to_dict(chain)
    leaves = _left_spine(table)
    assert len(leaves) == CHAIN
    first = [expand({"root": k, "nodes": table["nodes"]}) for k in leaves[:5]]
    assert first == [expand(ast_to_dict(f)) for f in _pd_atoms()]

    model = MaslModel(PD)
    expected = reduce.reduce([extension(model, f) for f in _pd_atoms()])
    assert 0 < expected.sum() < model.size
    assert np.array_equal(extension(model, chain), expected)
    assert np.array_equal(extension(MaslModel(PD), twin), expected)


def test_ten_thousand_deep_negation_and_box_nest(default_recursion_limit):
    c_first = Vec(Vector((Concrete("c"), ADV)))

    def nest(leaf):
        out = leaf
        for i in range(CHAIN):
            out = Not(out) if i % 2 else Box(c_first, out)
        return out

    deep, twin = nest(UtilEq(1, 3)), nest(UtilEq(1, 3))
    assert hash(deep) == hash(twin)
    assert deep == twin
    assert deep != nest(UtilEq(1, 2))

    model = MaslModel(PD)
    expected = extension(model, UtilEq(1, 3))
    for i in range(CHAIN):
        if i % 2:
            expected = ~expected
        else:
            expected = ~pre(model, c_first, ~expected)
    assert np.array_equal(extension(model, deep), expected)
    assert render(deep).count("~") == CHAIN // 2
    table = ast_to_dict(deep)
    # The leaf, the shared program's five entries, then one entry per level.
    assert len(table["nodes"]) == 5 + CHAIN
    assert table["nodes"][table["root"]]["node"] == "Not"


def test_long_cl_chain_renders(default_recursion_limit):
    chain = CLAtom(UtilEq(1, 2))
    for _ in range(CHAIN - 1):
        chain = CLAnd(chain, CLAtom(UtilEq(1, 2)))
    assert render_cl(chain) == " & ".join(["u1=2"] * CHAIN)
    assert len(_left_spine(ast_to_dict(chain))) == CHAIN


def test_ten_thousand_deep_prefix_runs_and_arrow_chains_parse(default_recursion_limit):
    c_first = Vec(Vector((Concrete("c"), ADV)))
    prefixes = [
        Not,
        lambda body: Box(c_first, body),
        lambda body: Diamond(c_first, body),
    ]
    # one run per prefix, then all three interleaved
    for run in [[p] for p in prefixes] + [prefixes]:
        deep = UtilEq(1, 3)
        for i in range(CHAIN):
            deep = run[i % len(run)](deep)
        assert parse(render(deep), PD_SIG) == deep
    for node, op in ((Implies, " -> "), (Iff, " <-> ")):
        chain = TOP
        for i in range(CHAIN - 1):
            chain = node(UtilEq(2, i % 4), chain)
        text = render(chain)
        assert text.count(op) == CHAIN - 1
        assert parse(text, PD_SIG) == chain


def test_ten_thousand_deep_cl_prefix_runs_parse(default_recursion_limit):
    for wrap in (CLNot, lambda body: CLBox(frozenset({1}), body)):
        deep = CLAtom(UtilEq(1, 2))
        for _ in range(CHAIN):
            deep = wrap(deep)
        assert parse(render_cl(deep), PD_SIG, "cl") == deep


def test_ten_thousand_operand_cl_chain_evaluates(default_recursion_limit):
    # true at c,c and false at c,d: the chain is contingent
    operands = [
        CLAtom(UtilEq(1, 2)),
        CLNot(CLAtom(UtilEq(2, 3))),
        CLBox(frozenset({1}), CLNot(CLAtom(UtilEq(1, 3)))),
        CLAtom(Label("cc")),
    ]
    chain = operands[0]
    for i in range(1, CHAIN):
        chain = CLAnd(chain, operands[i % len(operands)])
    model = MaslModel(PD)
    direct = cl_extension(model, chain)
    expected = np.logical_and.reduce([cl_extension(MaslModel(PD), f) for f in operands])
    assert 0 < expected.sum() < model.size
    assert np.array_equal(direct, expected)
    assert np.array_equal(direct, extension(model, translate(chain, PD.form)))

