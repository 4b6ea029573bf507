"""The per-class AST view that `jsonio.ast_to_dict` replaced, kept as an
oracle for it: one branch per node class, spelling out its tag and its keys
in order, with each child written out as a nested dict.  `jsonio.ast_to_dict`
writes a table of entries that name their children by index instead;
`expand` turns such a table back into the nested dicts of this view."""

from __future__ import annotations

from stratlogic.coalition import CLAnd, CLAtom, CLBox, CLNot, CLTop
from stratlogic.jsonio import util_to_json
from stratlogic.syntax import (
    Adversary,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Current,
    Diamond,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    Seq,
    Star,
    Test,
    Top,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
)


def ast_to_dict(node) -> dict:
    """Type-tagged JSON view of a formula, program, vector, or term.

    Built top-down from an explicit stack, so deep trees and long chains
    never reach the recursion limit."""
    root = _ast_node(node)
    stack = [root]
    while stack:
        out = stack.pop()
        for key in CHILD_KEYS:
            if key in out:
                out[key] = _ast_node(out[key])
                stack.append(out[key])
        if "terms" in out:
            out["terms"] = [_ast_node(t) for t in out["terms"]]
    return root


# The keys under which `_ast_node` leaves a child node to be converted.
CHILD_KEYS = ("vector", "body", "left", "right", "program", "atom")


def expand(table: dict) -> dict:
    """The nested dicts of a ``{"root": k, "nodes": [...]}`` table: each
    child index (under `CHILD_KEYS`, or in a ``terms`` list) replaced
    by its entry, itself expanded.  Children come before their parents, so
    one pass in table order expands every entry once; an entry that several
    parents name becomes one dict that they share."""
    done: list[dict] = []
    for entry in table["nodes"]:
        out = dict(entry)
        for key in CHILD_KEYS:
            if key in out:
                out[key] = done[out[key]]
        if "terms" in out:
            out["terms"] = [done[k] for k in out["terms"]]
        done.append(out)
    return done[table["root"]]


def _ast_node(node) -> dict:
    """One node's dict, with its children left as nodes."""
    if isinstance(node, Vector):
        return {"node": "Vector", "terms": list(node.terms)}
    if isinstance(node, Concrete):
        return {"node": "Concrete", "name": node.name}
    if isinstance(node, Adversary):
        return {"node": "Adversary"}
    if isinstance(node, Current):
        return {"node": "Current"}
    if isinstance(node, Top):
        return {"node": "Top"}
    if isinstance(node, VectorAtom):
        return {"node": "VectorAtom", "vector": node.vector}
    if isinstance(node, Winner):
        return {"node": "Winner", "name": node.name}
    if isinstance(node, UtilEq):
        return {"node": "UtilEq", "player": node.player, "value": util_to_json(node.value)}
    if isinstance(node, Label):
        return {"node": "Label", "text": node.text}
    if isinstance(node, Not):
        return {"node": "Not", "body": node.body}
    if isinstance(node, (And, Or, Implies, Iff)):
        return {"node": type(node).__name__, "left": node.left, "right": node.right}
    if isinstance(node, (Box, Diamond)):
        kind = type(node).__name__
        return {"node": kind, "program": node.program, "body": node.body}
    if isinstance(node, Vec):
        return {"node": "Vec", "vector": node.vector}
    if isinstance(node, Test):
        return {"node": "Test", "body": node.body}
    if isinstance(node, (Seq, Choice)):
        return {"node": type(node).__name__, "left": node.left, "right": node.right}
    if isinstance(node, Star):
        return {"node": "Star", "body": node.body}
    if isinstance(node, (Agent, AgentConv)):
        return {"node": type(node).__name__, "player": node.player}
    if isinstance(node, CLTop):
        return {"node": "CLTop"}
    if isinstance(node, CLAtom):
        return {"node": "CLAtom", "atom": node.atom}
    if isinstance(node, CLNot):
        return {"node": "CLNot", "body": node.body}
    if isinstance(node, CLAnd):
        return {"node": "CLAnd", "left": node.left, "right": node.right}
    if isinstance(node, CLBox):
        return {
            "node": "CLBox",
            "coalition": sorted(node.coalition),
            "body": node.body,
        }
    raise TypeError(f"cannot serialize {node!r}")
