"""Coalition logic over strategic games.

The coalition box ("the coalition has a joint strategy forcing the body
whatever the others do") is written into the strategy logic in one of two
ways and evaluated there.  `cl_extension` uses a linear encoding of two
vectors per box; `translate` is the paper's encoding, a disjunction over the
coalition's concrete commitment vectors.  Both are exact, so they can check
each other; the grid semantics they encode is the oracle in the tests.
"""
from __future__ import annotations

from functools import partial
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .games import Coalition, GameError
from .models import EvalError, IntensionalModel, extension
from .syntax import (
    ADV,
    CUR,
    And,
    Box,
    CLAnd,
    CLAtom,
    CLBox,
    CLFormula,
    CLNot,
    CLTop,
    Concrete,
    Diamond,
    Formula,
    Not,
    Top,
    Vec,
    Vector,
    disj,
    render_cl,
)


def cl_disj(parts: Sequence[CLFormula]) -> CLFormula:
    """Disjunction, spelled with the primitive connectives."""
    if not parts:
        return CLNot(CLTop())
    negated = [CLNot(p) for p in parts]
    out: CLFormula = negated[0]
    for part in negated[1:]:
        out = CLAnd(out, part)
    return CLNot(out)


# --------------------------------------------------------------------------
# evaluation and translation into the strategy logic


def cl_extension(model: IntensionalModel, formula: CLFormula) -> np.ndarray:
    """States satisfying a coalition formula, by `models.extension` on its
    linear encoding: ``[C]φ`` becomes ``<v_C>[w_C]φ``, where `v_C` has `??`
    at the members and `!!` elsewhere and `w_C` the reverse.  Some move by
    the coalition alone, after which every move by the others gives φ: the
    coalition has a joint strategy forcing φ.  The model's states must be
    exactly the profiles of one form, so that these moves reach every
    profile."""
    if len(model.forms) != 1 or model.size != model._total:
        raise EvalError(
            "coalition formulas need a model whose states are one full profile grid"
        )
    return extension(model, _to_masl(formula, partial(_linear_box, model.n)))


def _linear_box(n: int, coalition: Coalition, body: Formula) -> Formula:
    for player in coalition:
        if not 1 <= player <= n:
            raise EvalError(f"coalition mentions unknown player {player}")
    players = range(1, n + 1)
    some = Vector(ADV if p in coalition else CUR for p in players)
    every = Vector(CUR if p in coalition else ADV for p in players)
    return Diamond(Vec(some), Box(Vec(every), body))


def coalition_vectors(coalition: Iterable[int], form) -> list[Vector]:
    """Every way the coalition can commit: Concrete strategies for members,
    the wildcard for everyone else.  `form` is a GameForm or Signature."""
    members = sorted(set(coalition))
    n = len(form.strategy_sets)
    for player in members:
        if not 1 <= player <= n:
            raise GameError(f"coalition mentions unknown player {player}")
    member_sets = [form.strategy_sets[player - 1] for player in members]
    out = []
    for choice in product(*member_sets):
        by_player = dict(zip(members, choice))
        out.append(
            Vector(
                Concrete(by_player[p]) if p in by_player else ADV
                for p in range(1, n + 1)
            )
        )
    return out


def translate(formula: CLFormula, form) -> Formula:
    """Compile into the strategy logic as the paper does: the coalition box
    becomes a disjunction of boxes over the coalition's commitment vectors."""
    return _to_masl(formula, partial(_commitment_box, form))


def _commitment_box(form, coalition: Coalition, body: Formula) -> Formula:
    return disj(Box(Vec(c), body) for c in coalition_vectors(coalition, form))


def _to_masl(formula: CLFormula, box_rule) -> Formula:
    """The strategy-logic formula for a coalition formula, with each box
    written by ``box_rule(coalition, body)``.  Built bottom-up from an
    explicit stack, children left to right; nodes are told apart by
    identity, as in `models.compile_plan`, so a shared subtree is mapped
    once and nothing is hashed."""
    done: dict[int, Formula] = {}
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        if isinstance(node, CLAnd):
            kids = (node.left, node.right)
        elif isinstance(node, (CLNot, CLBox)):
            kids = (node.body,)
        else:
            kids = ()
        missing = [kid for kid in kids if id(kid) not in done]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        sub = [done[id(kid)] for kid in kids]
        if isinstance(node, CLTop):
            out = Top()
        elif isinstance(node, CLAtom):
            out = node.atom
        elif isinstance(node, CLNot):
            out = Not(sub[0])
        elif isinstance(node, CLAnd):
            out = And(sub[0], sub[1])
        elif isinstance(node, CLBox):
            out = box_rule(node.coalition, sub[0])
        else:
            raise GameError(f"not a coalition formula: {node!r}")
        done[id(node)] = out
    return done[id(formula)]
