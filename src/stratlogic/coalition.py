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
from itertools import product
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .games import Coalition, GameError
from .models import EvalError, MaslModel
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

_caches: "WeakKeyDictionary[MaslModel, dict]" = WeakKeyDictionary()


def cl_extension(model: MaslModel, formula: CLFormula) -> np.ndarray:
    """States satisfying a coalition formula, computed from the game grid
    (no relation matrices involved)."""
    cache = _caches.setdefault(model, {})
    if formula in cache:
        return cache[formula]
    if isinstance(formula, CLTop):
        mask = np.ones(model.size, dtype=bool)
    elif isinstance(formula, CLAtom):
        mask = model._atom_mask(formula.atom)
    elif isinstance(formula, CLNot):
        mask = ~cl_extension(model, formula.body)
    elif isinstance(formula, CLAnd):
        mask = cl_extension(model, formula.left) & cl_extension(model, formula.right)
    elif isinstance(formula, CLBox):
        mask = _cl_box_mask(model, formula)
    else:
        raise EvalError(f"not a coalition formula: {formula!r}")
    mask.flags.writeable = False
    cache[formula] = mask
    return mask


def _cl_box_mask(model: MaslModel, formula: CLBox) -> np.ndarray:
    for player in formula.coalition:
        if not 1 <= player <= model.n:
            raise EvalError(f"coalition mentions unknown player {player}")
    body = cl_extension(model, formula.body)
    sizes = [len(names) for names in model.game.form.strategy_sets]
    grid = body.reshape(sizes)
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


def cl_check(model: MaslModel, state, formula: CLFormula) -> bool:
    """Truth of a coalition formula at one state."""
    return bool(cl_extension(model, formula)[model.index(state)])


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
    if isinstance(formula, CLTop):
        return Top()
    if isinstance(formula, CLAtom):
        return formula.atom
    if isinstance(formula, CLNot):
        return Not(translate(formula.body, form))
    if isinstance(formula, CLAnd):
        return And(translate(formula.left, form), translate(formula.right, form))
    if isinstance(formula, CLBox):
        return disj(
            Box(Vec(c), translate(formula.body, form))
            for c in coalition_vectors(formula.coalition, form)
        )
    raise GameError(f"not a coalition formula: {formula!r}")
