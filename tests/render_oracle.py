"""A plain recursive renderer, kept as the reference for `syntax.render`.

It is written from the precedence table of `stratlogic.parser`'s docstring,
not from `syntax.py`: formula connectives, loosest first, are ``<->`` and
``->`` (both right-associative), ``|`` and ``&`` (both left-associative),
then the unary prefixes ``~``, ``[p]`` and ``<p>`` and the atoms; program
operators, loosest first, are ``+`` and ``;`` (both left-associative), then
postfix ``*`` and the primaries; coalition formulas have ``&``
(left-associative), then the prefixes ``~`` and ``[C {i,...}]`` and the
atoms.  A child is put in parentheses only where it binds looser than its
place needs.  Vectors are spelled term by term on
every call, so a spelling kept on a `Vector` is never read here.  It
recurses once per level, so it is for trees of modest depth.
"""
from __future__ import annotations

import re

from stratlogic.syntax import (
    Adversary,
    Agent,
    AgentConv,
    And,
    Box,
    CLAnd,
    CLAtom,
    CLBox,
    CLFormula,
    CLNot,
    CLTop,
    Choice,
    Concrete,
    Diamond,
    Formula,
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

# node class -> (operator, binding strength, right-associative)
_FORMULA_INFIX = {
    Iff: (" <-> ", 0, True),
    Implies: (" -> ", 1, True),
    Or: (" | ", 2, False),
    And: (" & ", 3, False),
}
_FORMULA_UNARY = 4
_PROGRAM_INFIX = {Choice: ("+", 0, False), Seq: (";", 1, False)}
_PROGRAM_UNARY = 2


def render(node) -> str:
    if isinstance(node, Vector):
        return vector(node)
    if isinstance(node, Formula):
        return formula(node, 0)
    if isinstance(node, CLFormula):
        return coalition(node, 0)
    return program(node, 0)


def vector(v: Vector) -> str:
    terms = []
    for term in v.terms:
        if isinstance(term, Concrete):
            terms.append(term.name)
        elif isinstance(term, Adversary):
            terms.append("??")
        else:
            terms.append("!!")
    return "(" + ",".join(terms) + ")"


def _name_argument(text: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return text
    if '"' in text:
        raise ValueError(f"cannot quote {text!r}")
    return '"' + text + '"'


def _infix(table: dict, walk, node, context: int) -> str:
    op, level, right_assoc = table[type(node)]
    left = walk(node.left, level + 1 if right_assoc else level)
    right = walk(node.right, level if right_assoc else level + 1)
    text = left + op + right
    return "(" + text + ")" if level < context else text


def formula(f, context: int) -> str:
    if type(f) in _FORMULA_INFIX:
        return _infix(_FORMULA_INFIX, formula, f, context)
    if isinstance(f, Not):
        return "~" + formula(f.body, _FORMULA_UNARY)
    if isinstance(f, Box):
        return "[" + program(f.program, 0) + "] " + formula(f.body, _FORMULA_UNARY)
    if isinstance(f, Diamond):
        return "<" + program(f.program, 0) + "> " + formula(f.body, _FORMULA_UNARY)
    if isinstance(f, Top):
        return "T"
    if isinstance(f, VectorAtom):
        return vector(f.vector)
    if isinstance(f, Winner):
        return "win(" + _name_argument(f.name) + ")"
    if isinstance(f, UtilEq):
        value = f.value
        if value.denominator == 1:
            return f"u{f.player}={value.numerator}"
        return f"u{f.player}={value.numerator}/{value.denominator}"
    if isinstance(f, Label):
        return "label(" + _name_argument(f.text) + ")"
    raise TypeError(f"not a formula: {f!r}")


def program(p, context: int) -> str:
    if type(p) in _PROGRAM_INFIX:
        return _infix(_PROGRAM_INFIX, program, p, context)
    if isinstance(p, Star):
        return program(p.body, _PROGRAM_UNARY) + "*"
    if isinstance(p, Test):
        return "?" + formula(p.body, _FORMULA_UNARY)
    if isinstance(p, Vec):
        return vector(p.vector)
    if isinstance(p, Agent):
        return f"ag{p.player}"
    if isinstance(p, AgentConv):
        return f"ag{p.player}^"
    raise TypeError(f"not a program: {p!r}")


def coalition(f, context: int = 0) -> str:
    """A coalition formula; `context` is 0 at the top and under ``&``'s
    left operand, 1 under a prefix and ``&``'s right operand."""
    if isinstance(f, CLAnd):
        text = coalition(f.left, 0) + " & " + coalition(f.right, 1)
        return "(" + text + ")" if context > 0 else text
    if isinstance(f, CLNot):
        return "~" + coalition(f.body, 1)
    if isinstance(f, CLBox):
        members = ",".join(str(i) for i in sorted(f.coalition))
        return "[C {" + members + "}] " + coalition(f.body, 1)
    if isinstance(f, CLTop):
        return "T"
    if isinstance(f, CLAtom):
        return formula(f.atom, 0)
    raise TypeError(f"not a coalition formula: {f!r}")
