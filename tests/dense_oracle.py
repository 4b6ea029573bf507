"""Dense-relation semantics, kept as the test oracle for `stratlogic.models`.

Every program denotes an explicit m x m boolean matrix: vectors by the
membership law, sequencing by boolean matrix product, choice by union,
iteration by reflexive-transitive closure, tests by a diagonal.  This is
the textbook semantics the package's relation-free evaluator must match;
it costs O(m^2) memory and O(m^3) time, so use it on small models only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from stratlogic import (
    Adversary,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Current,
    Diamond,
    EvalError,
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
    VectorAtom,
    Winner,
    extension,
)
from stratlogic.models import pre


def interpret_term(term, strategies: Sequence[str], current: str) -> frozenset[str]:
    """The set of strategies a term denotes for one player.

    ``strategies`` is the player's strategy set in the relevant form and
    ``current`` is what the player plays at the source state.  A Concrete
    term naming an unavailable strategy denotes the empty set.
    """
    available = frozenset(strategies)
    if isinstance(term, Concrete):
        return available & {term.name}
    if isinstance(term, Adversary):
        return available
    if isinstance(term, Current):
        return available & {current}
    raise EvalError(f"not a strategy term: {term!r}")


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relational composition of boolean matrices."""
    return a @ b


def rtc(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring to a fixpoint."""
    closure = rel | np.eye(len(rel), dtype=bool)
    while True:
        squared = compose(closure, closure)
        if np.array_equal(squared, closure):
            return closure
        closure = squared


def _layout(model):
    """(ambient form, (m, n) ambient coordinates, per-state form index)."""
    coords = np.array(model.states, dtype=np.int64)
    forms = np.array([fi for fi, _ in model.worlds], dtype=np.int64)
    return model.ambient, coords, forms


def vector_relation(model, vector) -> np.ndarray:
    """s -> t iff both lie in the same form and t's coordinate lies in each
    term's denotation at s."""
    ambient, coords, forms = _layout(model)
    if vector.n != ambient.n:
        raise EvalError(f"vector {vector!r} has {vector.n} positions, not {ambient.n}")
    m = len(coords)
    rel = forms[:, None] == forms[None, :]
    for pos, term in enumerate(vector.terms):
        col = coords[:, pos]
        if isinstance(term, Current):
            rel &= col[:, None] == col[None, :]
        elif isinstance(term, Concrete):
            names = ambient.strategy_sets[pos]
            if term.name not in names:
                return np.zeros((m, m), dtype=bool)
            rel &= (col == names.index(term.name))[None, :]
    return rel


def agent_relation(model, player: int) -> np.ndarray:
    src, dst = model.agent_edges(player)
    rel = np.zeros((model.size, model.size), dtype=bool)
    rel[src, dst] = True
    return rel


def program_relation(model, program) -> np.ndarray:
    """The binary relation a program denotes, as a boolean matrix."""
    if isinstance(program, Vec):
        return vector_relation(model, program.vector)
    if isinstance(program, Test):
        return np.diag(dense_extension(model, program.body))
    if isinstance(program, Seq):
        return compose(
            program_relation(model, program.left),
            program_relation(model, program.right),
        )
    if isinstance(program, Choice):
        return program_relation(model, program.left) | program_relation(
            model, program.right
        )
    if isinstance(program, Star):
        return rtc(program_relation(model, program.body))
    if isinstance(program, Agent):
        return agent_relation(model, program.player)
    if isinstance(program, AgentConv):
        return agent_relation(model, program.player).T
    raise EvalError(f"not a program: {program!r}")


def dense_extension(model, formula) -> np.ndarray:
    """Formula extension with every modality read off a dense relation.
    Atoms come from the package: they are not what this oracle checks."""
    if isinstance(formula, (Top, VectorAtom, Winner, UtilEq, Label)):
        return extension(model, formula)
    if isinstance(formula, Not):
        return ~dense_extension(model, formula.body)
    if isinstance(formula, (And, Or, Implies, Iff)):
        left = dense_extension(model, formula.left)
        right = dense_extension(model, formula.right)
        if isinstance(formula, And):
            return left & right
        if isinstance(formula, Or):
            return left | right
        if isinstance(formula, Implies):
            return ~left | right
        return left == right
    if isinstance(formula, Diamond):
        return compose(
            program_relation(model, formula.program),
            dense_extension(model, formula.body),
        )
    if isinstance(formula, Box):
        return ~compose(
            program_relation(model, formula.program),
            ~dense_extension(model, formula.body),
        )
    raise EvalError(f"not a formula: {formula!r}")


def relation_via_pre(model, program) -> np.ndarray:
    """The relation the package's `pre` realises, read back column by
    column: column t is the set of predecessors of the single state t."""
    rel = np.zeros((model.size, model.size), dtype=bool)
    for t in range(model.size):
        unit = np.zeros(model.size, dtype=bool)
        unit[t] = True
        rel[:, t] = pre(model, program, unit)
    return rel
