"""The grid semantics of coalition logic that `coalition.cl_extension`
replaced with its strategy-logic encoding, kept as an independent oracle.

A coalition box holds everywhere or nowhere: it holds iff some slice of the
profile grid that fixes the members' strategies has the body true at every
profile.  Atoms are read through `models.extension`, as in the library; the
box itself never touches a relation or a vector program.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from stratlogic.coalition import CLAnd, CLAtom, CLBox, CLNot, CLTop
from stratlogic.models import EvalError, extension

from fold_oracle import fold


def cl_extension(model, formula) -> np.ndarray:
    """States satisfying a coalition formula, computed from the game grid.
    The model's states must be exactly the profiles of one form."""
    if model._blocks is not None or model.size != model._total:
        raise EvalError(
            "coalition formulas need a model whose states are one full profile grid"
        )
    return fold(formula, _cl_children, partial(_cl_mask, model), {})


def _cl_children(f) -> tuple:
    if isinstance(f, CLAnd):
        return f.left, f.right
    if isinstance(f, (CLNot, CLBox)):
        return (f.body,)
    return ()


def _cl_mask(model, f, *sub: np.ndarray) -> np.ndarray:
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


def _cl_box_mask(model, formula, body: np.ndarray) -> np.ndarray:
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
