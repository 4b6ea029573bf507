"""The fold-driven evaluator that `models.extension` replaced, kept as an
oracle for the compiled plan runner.

`fold` walks the formula bottom-up from an explicit stack, children
left to right, and combines each node's children's masks; a subtree already
in the per-call `done` dict (by structural equality) is combined once.  So
the first error it raises is the one the left-to-right post-order meets
first.  Programs go through `models.pre`, as in the runner, and atoms
through `models.extension`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from stratlogic.models import EvalError, extension as atom_mask, pre
from stratlogic.syntax import (
    And,
    Box,
    Diamond,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    Top,
    UtilEq,
    VectorAtom,
    Winner,
)


def fold(root, children, combine, done: dict):
    """``combine(node, *results of children(node))`` bottom-up from an explicit
    stack, children left to right.  Results (never None) are kept in `done`
    by node, so a subtree already there is combined only once."""
    stack = [root]
    while stack:
        node = stack[-1]
        if node in done:  # a subtree that occurs more than once
            stack.pop()
            continue
        kids = children(node)
        results = [done.get(kid) for kid in kids]
        missing = [kid for kid, result in zip(kids, results) if result is None]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        done[node] = combine(node, *results)
    return done[root]


def extension(model, formula) -> np.ndarray:
    return fold(formula, _subformulas, partial(_connective, model), {})


def _subformulas(f) -> tuple:
    if isinstance(f, (And, Or, Implies, Iff)):
        return f.left, f.right
    if isinstance(f, (Not, Box, Diamond)):
        return (f.body,)
    return ()


def _connective(model, f, *sub: np.ndarray) -> np.ndarray:
    if isinstance(f, Top):
        return np.ones(model.size, dtype=bool)
    if isinstance(f, (VectorAtom, Winner, UtilEq, Label)):
        return atom_mask(model, f)
    if isinstance(f, Not):
        return ~sub[0]
    if isinstance(f, And):
        return sub[0] & sub[1]
    if isinstance(f, Or):
        return sub[0] | sub[1]
    if isinstance(f, Implies):
        return ~sub[0] | sub[1]
    if isinstance(f, Iff):
        return sub[0] == sub[1]
    if isinstance(f, Diamond):
        return pre(model, f.program, sub[0])
    if isinstance(f, Box):
        return ~pre(model, f.program, ~sub[0])
    raise EvalError(f"not a formula: {f!r}")
