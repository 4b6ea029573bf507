"""Small syntax and signature builders, and a node walker, that only the
tests use."""

from __future__ import annotations

from stratlogic import (
    Box,
    Choice,
    Diamond,
    Formula,
    GameForm,
    Implies,
    Program,
    Seq,
    Signature,
    Vector,
)
from stratlogic.syntax import Node, Vec


def seq(first: Program, *rest: Program) -> Program:
    """Left-nested sequence: seq(a, b, c) is (a;b);c."""
    out = first
    for p in rest:
        out = Seq(out, p)
    return out


def choice(first: Program, *rest: Program) -> Program:
    """Left-nested choice: choice(a, b, c) is (a+b)+c."""
    out = first
    for p in rest:
        out = Choice(out, p)
    return out


def bare_signature(form: GameForm) -> Signature:
    """A form's strategy vocabulary, without utility range or alternatives."""
    return Signature(form.strategy_sets)


def functionality_shape(vector: Vector, phi: Formula) -> Formula:
    """The Functionality implication for an arbitrary vector, including
    undetermined ones; useful for exhibiting counterexamples."""
    return Implies(Diamond(Vec(vector), phi), Box(Vec(vector), phi))


def node_objects(root: Node) -> list[Node]:
    """Every syntax-node object reachable from `root`, each object once."""
    seen: dict[int, Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        for name in node.__match_args__:
            value = getattr(node, name)
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Node):
                    stack.append(child)
    return list(seen.values())
