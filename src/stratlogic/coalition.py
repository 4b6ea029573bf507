"""Coalition logic over strategic games.

The direct semantics of the coalition box ("the coalition has a joint
strategy forcing the body whatever the others do") is evaluated straight
from the game grid; independently, `translate` compiles coalition formulas
into the strategy logic, where the box becomes a disjunction over the
coalition's concrete commitment vectors.  The two routes are kept separate
so they can check each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .games import Coalition, GameError
from .models import EvalError, IntensionalModel, extension
from .syntax import (
    ADV,
    And,
    Box,
    Concrete,
    Formula,
    Label,
    Layout,
    Node,
    Not,
    Top,
    UtilEq,
    Vec,
    Vector,
    Winner,
    disj,
    fold,
    infix,
    render,
    render_with,
)


class CLFormula(Node):
    """Base class for coalition-logic formulas."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class CLTop(CLFormula):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class CLAtom(CLFormula):
    """An atomic fact, shared vocabulary with the strategy logic."""

    atom: Formula

    def __post_init__(self) -> None:
        if not isinstance(self.atom, (Winner, UtilEq, Label)):
            raise GameError(f"not an atomic formula: {self.atom!r}")


@dataclass(frozen=True, slots=True, eq=False)
class CLNot(CLFormula):
    body: CLFormula


@dataclass(frozen=True, slots=True, eq=False)
class CLAnd(CLFormula):
    left: CLFormula
    right: CLFormula


@dataclass(frozen=True, slots=True, eq=False)
class CLBox(CLFormula):
    """``[C]body``: coalition C can force `body`."""

    coalition: Coalition
    body: CLFormula

    def __post_init__(self) -> None:
        object.__setattr__(self, "coalition", frozenset(self.coalition))


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
# rendering

_CL_AND, _CL_UNARY = range(2)


def render_cl(formula: CLFormula) -> str:
    return render_with(_CL, formula, _CL_AND)


def _render_cl_box(f: CLBox) -> list:
    members = ",".join(str(i) for i in sorted(f.coalition))
    return [f"[C {{{members}}}] ", (_CL, f.body, _CL_UNARY)]


_CL = Layout("coalition formula", {
    CLAnd: lambda f, c: infix(_CL, f, " & ", _CL_AND, c),
    CLTop: lambda f, c: "T",
    CLAtom: lambda f, c: render(f.atom),
    CLNot: lambda f, c: ["~", (_CL, f.body, _CL_UNARY)],
    CLBox: lambda f, c: _render_cl_box(f),
})


# --------------------------------------------------------------------------
# direct semantics


def cl_extension(model: IntensionalModel, formula: CLFormula) -> np.ndarray:
    """States satisfying a coalition formula, computed from the game grid
    (no relation matrices involved).  The model's states must be exactly the
    profiles of one form; masks are kept in the model's extension cache."""
    if model._blocks is not None or model.size != model._total:
        raise EvalError(
            "coalition formulas need a model whose states are one full profile grid"
        )
    return fold(formula, _cl_children, partial(_cl_mask, model), model._ext_cache)


def _cl_children(f: CLFormula) -> tuple:
    if isinstance(f, CLAnd):
        return f.left, f.right
    if isinstance(f, (CLNot, CLBox)):
        return (f.body,)
    return ()


def _cl_mask(model: IntensionalModel, f: CLFormula, *sub: np.ndarray) -> np.ndarray:
    """The mask of one node, given the masks of its `_cl_children`."""
    if isinstance(f, CLAtom):
        return extension(model, f.atom)
    if isinstance(f, CLTop):
        mask = np.ones(model.size, dtype=bool)
    elif isinstance(f, CLNot):
        mask = ~sub[0]
    elif isinstance(f, CLAnd):
        mask = sub[0] & sub[1]
    elif isinstance(f, CLBox):
        mask = _cl_box_mask(model, f, sub[0])
    else:
        raise EvalError(f"not a coalition formula: {f!r}")
    mask.flags.writeable = False
    return mask


def _cl_box_mask(model: IntensionalModel, formula: CLBox, body: np.ndarray) -> np.ndarray:
    for player in formula.coalition:
        if not 1 <= player <= model.n:
            raise EvalError(f"coalition mentions unknown player {player}")
    grid = body.reshape(model._shape)
    complement_axes = tuple(
        pos for pos in range(model.n) if (pos + 1) not in formula.coalition
    )
    if complement_axes:
        forced = np.all(grid, axis=complement_axes)
    else:
        forced = grid
    # The box is state-independent: the coalition either has a forcing
    # commitment or it does not.
    value = bool(np.any(forced))
    return np.full(model.size, value, dtype=bool)


# --------------------------------------------------------------------------
# translation into the strategy logic


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
    """Compile into the strategy logic: the coalition box becomes a
    disjunction of boxes over the coalition's commitment vectors."""
    return fold(formula, _cl_children, partial(_translate, form), {})


def _translate(form, f: CLFormula, *sub: Formula) -> Formula:
    if isinstance(f, CLTop):
        return Top()
    if isinstance(f, CLAtom):
        return f.atom
    if isinstance(f, CLNot):
        return Not(sub[0])
    if isinstance(f, CLAnd):
        return And(sub[0], sub[1])
    if isinstance(f, CLBox):
        return disj(Box(Vec(c), sub[0]) for c in coalition_vectors(f.coalition, form))
    raise GameError(f"not a coalition formula: {f!r}")
