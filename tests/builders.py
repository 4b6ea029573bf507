"""Small syntax and signature builders that only the tests use."""

from __future__ import annotations

from stratlogic import Choice, GameForm, Program, Seq, Signature


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
