"""A recursive compile of evaluation plans, kept as the reference for
`models.compile_plan`, which walks an explicit stack.

Each distinct node (by identity) gets one entry, in post-order, children
left to right: the entry's operation code, what the runner reads of the
node (the leaf itself, a modality's program, or None) and its children's
slots (-1 where there is none).  The codes are the plan's: a leaf 0, then
Not, Diamond, Box, And, Or, Implies and Iff from 1 to 7.
"""

from __future__ import annotations

from stratlogic.syntax import And, Box, Diamond, Iff, Implies, Not, Or

_UNARY = {Not: 1, Diamond: 2, Box: 3}
_BINARY = {And: 4, Or: 5, Implies: 6, Iff: 7}


def compile_plan(roots) -> tuple:
    """(ops, nodes, left, right, roots) of one plan for all the roots."""
    ops, nodes, left, right, slots = [], [], [], [], {}

    def visit(node) -> int:
        if id(node) in slots:
            return slots[id(node)]
        kind = type(node)
        if kind in _BINARY:
            a, b = visit(node.left), visit(node.right)
            op, entry = _BINARY[kind], None
        elif kind in _UNARY:
            a, b = visit(node.body), -1
            op, entry = _UNARY[kind], None if kind is Not else node.program
        else:
            a, b, op, entry = -1, -1, 0, node
        slots[id(node)] = len(ops)
        ops.append(op)
        nodes.append(entry)
        left.append(a)
        right.append(b)
        return slots[id(node)]

    roots = list(roots)
    return ops, nodes, left, right, [visit(root) for root in roots]
