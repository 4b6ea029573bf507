"""Model checking for the strategy logic.

A model is a set of (form, profile) worlds with optional per-agent
accessibility relations on top; a strategic game's model is the case of one
form, all of its profiles and no agents.  No relation is ever materialised:
formula extensions are boolean masks over the states, computed bottom-up
with per-model caching, and every modality is a predecessor computation on
masks (`pre`).  A vector acts axis by axis on the profile grid, agent
relations are stored as (source, target) edge arrays, and iteration is a
least fixpoint grown from its frontier.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .games import (
    GameError,
    GameForm,
    Outcomes,
    Profile,
    StrategicGame,
    all_profiles,
)
from .syntax import (
    Adversary,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Diamond,
    Formula,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    Program,
    Seq,
    Signature,
    Star,
    Test,
    Top,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
)


class EvalError(ValueError):
    """Raised when a formula cannot be evaluated on the given model."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class IntensionalModel:
    """Worlds are (form, profile) pairs; agents get accessibility relations.

    This is the one model class.  A strategic game's model (`MaslModel`) is
    the special case with one unnamed form, every profile as a world and no
    agent mapping.  Profiles are stored with ambient strategy indices, and
    vector moves never cross between forms.  Each agent's relation is kept
    as (source, target) arrays of world indices.

    `worlds` lists (form index, profile) pairs, or is an integer array of
    (form index, *profile) rows; `outcomes` has one row per world.  A form
    id of None leaves a form unnamed: its worlds' keys are bare profile keys
    such as ``c,d``, not ``G:c,d``.
    Without an `agent_edges` mapping agent programs raise `EvalError`; with
    one, a player the mapping leaves out has the empty relation.
    """

    def __init__(
        self,
        ambient: GameForm,
        forms: Sequence[tuple[str | None, GameForm]],
        worlds: Sequence[tuple[int, Profile]] | np.ndarray,
        outcomes: Outcomes,
        agent_edges: Mapping[int, Iterable[tuple[int, int]]] | None = None,
    ):
        self.ambient = ambient
        self.n = n = ambient.n
        self.forms = tuple(forms)
        self._shape = shape = tuple(len(names) for names in ambient.strategy_sets)
        if not self.forms:
            raise GameError("an intensional model needs at least one form")
        ids = [fid for fid, _ in self.forms]
        if len(set(ids)) != len(ids):
            raise GameError("form ids must be distinct")
        try:
            if not isinstance(worlds, np.ndarray):
                worlds = [(form_idx, *profile) for form_idx, profile in worlds]
            table = np.asarray(worlds, dtype=np.int64).reshape(len(worlds), n + 1)
        except (OverflowError, TypeError, ValueError):
            raise GameError(f"worlds must be (form index, {n}-player profile) pairs") from None
        m = len(table)
        if not m:
            raise GameError("an intensional model needs at least one world")
        # Every check runs on whole columns; a failure names its first world.
        form_col, coords = table[:, 0], table[:, 1:]
        outside = (table < 0) | (table >= (len(self.forms), *shape))
        if outside.any():
            row = outside.any(axis=1).argmax()
            if outside[row, 0]:
                raise GameError(f"world references unknown form index {form_col[row]}")
            raise GameError(
                f"profile {tuple(coords[row].tolist())!r} is out of range "
                f"at player {outside[row, 1:].argmax() + 1}"
            )
        for form_idx, (fid, form) in enumerate(self.forms):
            if form.n != n:
                raise GameError(f"form {fid!r} has a different player count")
            if form.strategy_sets == ambient.strategy_sets:
                continue
            for pos, names in enumerate(ambient.strategy_sets):
                offered = [name in form.strategy_sets[pos] for name in names]
                if tuple(compress(names, offered)) != form.strategy_sets[pos]:
                    raise GameError(
                        f"form {fid!r} is not an order-preserving restriction "
                        f"of the ambient form at player {pos + 1}"
                    )
                if all(offered):
                    continue
                rows = np.flatnonzero(form_col == form_idx)
                absent = rows[~np.take(offered, coords[rows, pos])]
                if absent.size:
                    key = ambient.profile_key(tuple(coords[absent[0]].tolist()))
                    raise GameError(f"world profile {key!r} is not available in form {fid!r}")
        self._total = total = math.prod(shape)
        weights = [total] + [math.prod(shape[pos + 1 :]) for pos in range(n)]
        # A world's slot is its form index * total + its ambient grid cell.
        self._slots = slots = table @ np.array(weights)
        self._cells = slots % total
        self._form_col, self._coords = form_col, coords
        # Dense when the worlds are full copies of the ambient grid, form by
        # form in enumeration order (so none repeats).
        self._dense = m % total == 0 and np.array_equal(slots, np.arange(m))
        if not self._dense:
            dup = self._lookup[slots] != np.arange(m)
            if dup.any():
                row = dup.argmax()
                raise GameError(
                    f"duplicate world {(int(form_col[row]), tuple(coords[row].tolist()))!r}"
                )
        self.outcomes = outcomes
        if len(outcomes) != m:
            raise GameError("need exactly one outcome record per world")
        if outcomes.codes.shape[1] != n:
            label = outcomes.labels[outcomes.label_codes[0]]
            raise GameError(f"outcome {label!r} has wrong utility count for {n} players")
        self._edges = None if agent_edges is None else {}
        for player, edges in (agent_edges or {}).items():
            if not 1 <= player <= n:
                raise GameError(f"accessibility given for unknown player {player}")
            if not isinstance(edges, np.ndarray):
                edges = list(edges)
            try:
                pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            except (OverflowError, TypeError, ValueError):
                raise GameError(
                    f"accessibility for player {player} must be integer pairs"
                ) from None
            outside = (pairs < 0) | (pairs >= m)
            if outside.any():
                i, j = pairs[outside.any(axis=1)][0]
                raise GameError(f"accessibility edge ({i}, {j}) out of range")
            self._edges[player] = (_frozen(pairs[:, 0]), _frozen(pairs[:, 1]))
        # Masks by `run_plan` key.
        self._ext_cache: dict = {}
        self._plans: dict[Vector, tuple | None] = {}

    @property
    def size(self) -> int:
        return len(self._slots)

    @cached_property
    def _signature(self) -> Signature:
        table = self.outcomes
        return Signature(self.ambient.strategy_sets, table.values, table.alternatives)

    @cached_property
    def _value_codes(self) -> dict:
        return {value: code for code, value in enumerate(self.outcomes.values)}

    @cached_property
    def _label_codes(self) -> dict:
        return {label: code for code, label in enumerate(self.outcomes.labels)}

    @cached_property
    def _lookup(self) -> np.ndarray:
        """World index by slot, -1 at slots without a world."""
        lookup = np.full(len(self.forms) * self._total, -1, dtype=np.int64)
        lookup[self._slots] = np.arange(len(self._slots))
        return lookup

    @cached_property
    def states(self) -> list[Profile]:
        """Each world's profile, in ambient strategy indices."""
        return list(map(tuple, self._coords.tolist()))

    @cached_property
    def worlds(self) -> list[tuple[int, Profile]]:
        """Each world as a (form index, profile) pair."""
        return list(zip(self._form_col.tolist(), self.states))

    def state_key(self, idx: int) -> str:
        """``c,d`` for a world of an unnamed form, ``G:c,d`` for one of form G."""
        form_id = self.forms[self._form_col[idx]][0]
        key = self.ambient.profile_key(tuple(self._coords[idx].tolist()))
        return key if form_id is None else f"{form_id}:{key}"

    def index(self, where: int | str | tuple) -> int:
        """A world's index, from the index itself, its `state_key`, or its
        profile (one unnamed form) or (form index, profile) pair (named forms)."""
        if isinstance(where, int):
            if 0 <= where < self.size:
                return where
            raise EvalError(f"world index {where} out of range")
        if isinstance(where, str):
            prefix, colon, key = where.rpartition(":")
            form_id = prefix if colon else None
            ids = [fid for fid, _ in self.forms]
            if form_id not in ids:
                raise EvalError(f"state key {where!r} names no form of this model")
            where = (ids.index(form_id), self.ambient.profile_from_key(key))
        elif self.forms[0][0] is None:
            where = (0, where)
        form_idx, profile = where
        self.ambient.validate_profile(profile)
        if 0 <= form_idx < len(self.forms):
            cell = np.ravel_multi_index(profile, self._shape)
            state = int(self._lookup[form_idx * self._total + cell])
            if state >= 0:
                return state
        raise EvalError(f"no world {where!r} in this model")

    def agent_edges(self, player: int) -> tuple[np.ndarray, np.ndarray]:
        """The player's accessibility relation as (source, target) arrays,
        in the order the edges were given."""
        if self._edges is None:
            raise EvalError("agent programs need a model with agent relations")
        if not 1 <= player <= self.n:
            raise EvalError(f"no player {player} in this model")
        if player not in self._edges:
            empty = _frozen(np.zeros(0, dtype=np.int64))
            return empty, empty
        return self._edges[player]

    def _atom_mask(self, f: Formula) -> np.ndarray:
        table = self.outcomes
        if isinstance(f, Winner):
            if table.alternatives is None:
                raise EvalError("model has no winner labelling for win(...) atoms")
            if f.name not in table.alternatives:
                return np.zeros(self.size, dtype=bool)
            return table.winners[:, table.alternatives.index(f.name)].copy()
        if isinstance(f, UtilEq):
            if not 1 <= f.player <= self.n:
                raise EvalError(f"no player {f.player} in this model")
            code = self._value_codes.get(f.value)
            if code is None:
                raise EvalError(
                    f"utility value {f.value} is not in the model's range"
                )
            return table.codes[:, f.player - 1] == code
        if isinstance(f, Label):
            code = self._label_codes.get(f.text)
            if code is None:
                return np.zeros(self.size, dtype=bool)
            return table.label_codes == code
        raise EvalError(f"not an atomic formula: {f!r}")

    def _vector_atom_mask(self, vector: Vector) -> np.ndarray:
        """States matching every Concrete position of the vector."""
        grid = np.zeros((1, *self._shape), dtype=bool)
        plan = self._vector_plan(vector)
        if plan is not None:
            grid[plan[0]] = True
        return grid.reshape(-1)[self._cells]

    def _vector_plan(self, vector: Vector) -> tuple | None:
        """How a vector acts on a stack of ambient grids (a leading form
        axis, then one axis per player), compiled once per model: an index
        tuple cutting each Concrete axis to its strategy, and the `??` axes;
        None when a Concrete name is foreign to the ambient form."""
        try:
            return self._plans[vector]
        except KeyError:
            pass
        if vector.n != self.n:
            raise EvalError(
                f"vector {vector!r} has {vector.n} positions for {self.n} players"
            )
        index = [slice(None)]
        adversary: list[int] = []
        plan: tuple | None = None
        for pos, term in enumerate(vector.terms):
            if isinstance(term, Concrete):
                names = self.ambient.strategy_sets[pos]
                if term.name not in names:
                    break
                at = names.index(term.name)
                index.append(slice(at, at + 1))
            else:
                index.append(slice(None))
                if isinstance(term, Adversary):
                    adversary.append(pos + 1)
        else:
            plan = (tuple(index), tuple(adversary))
        self._plans[vector] = plan
        return plan

    def _pre_vector(self, vector: Vector, target: np.ndarray) -> np.ndarray:
        plan = self._vector_plan(vector)
        if plan is None:
            return np.zeros(self.size, dtype=bool)
        if self._dense:
            return _grid_pre(target.reshape(-1, *self._shape), *plan).reshape(-1)
        # The worlds are scattered into one copy of the grid per form: the
        # form axis is never a `??` axis, so vector moves never cross forms,
        # and absent profiles stay false.
        grid = np.zeros(len(self.forms) * self._total, dtype=bool)
        grid[self._slots] = target
        return _grid_pre(grid.reshape(-1, *self._shape), *plan).reshape(-1)[self._slots]


def _grid_worlds(form: GameForm) -> np.ndarray:
    """Every profile of the form as a world of form 0: (form index, *profile)
    rows in `all_profiles` order."""
    shape = (1, *(len(names) for names in form.strategy_sets))
    return np.indices(shape).reshape(len(shape), -1).T


def _grid_pre(grid: np.ndarray, index: tuple, adversary: tuple) -> np.ndarray:
    """Predecessors of a mask on a stack of grids under one vector: the form
    axis and `!!` axes stay, Concrete axes read the named slice, `??` axes
    take `any`; then broadcast back."""
    sub = grid[index]
    if adversary:
        sub = sub.any(axis=adversary, keepdims=True)
    out = np.empty(grid.shape, dtype=bool)
    out[...] = sub
    return out


def MaslModel(game: StrategicGame) -> IntensionalModel:
    """A strategic game read as a Kripke model over its profiles: one unnamed
    form, every profile a world in `all_profiles` order, and no agents."""
    return IntensionalModel(
        game.form, ((None, game.form),), _grid_worlds(game.form), game.outcomes
    )


def model_signature(model: IntensionalModel) -> Signature:
    """The parsing/building vocabulary a model supports."""
    return model._signature


def pre(model: IntensionalModel, program: Program, target: np.ndarray) -> np.ndarray:
    """The states with at least one `program` successor in `target`.

    `target` is a boolean mask over the model's states; the result is a new
    mask.  The program is run from an explicit stack of steps, each taking
    its input mask from the top of a mask stack and leaving its output
    there, so long sequences and choices never reach the recursion limit.
    """
    if isinstance(program, Vec):
        return model._pre_vector(program.vector, target)
    masks = [target]
    steps: list = [program]
    while steps:
        step = steps.pop()
        if isinstance(step, Vec):
            masks.append(model._pre_vector(step.vector, masks.pop()))
        elif isinstance(step, Test):
            masks.append(extension(model, step.body) & masks.pop())
        elif isinstance(step, Seq):
            steps += (step.left, step.right)
        elif isinstance(step, Choice):
            # pre(left, X) | pre(right, X), run as: copy X, left, swap, right, or.
            steps += (_OR, step.right, _SWAP, step.left, _COPY)
        elif step is _COPY:
            masks.append(masks[-1])
        elif step is _SWAP:
            masks[-2], masks[-1] = masks[-1], masks[-2]
        elif step is _OR:
            right = masks.pop()
            masks.append(masks.pop() | right)
        elif isinstance(step, Star):
            # The body is applied at least once, so its evaluation errors
            # surface even for an empty target.
            steps += (_StarRound(step.body, np.array(masks[-1], dtype=bool)), step.body)
        elif isinstance(step, _StarRound):
            fresh = masks.pop() & ~step.reached
            if fresh.any():
                step.reached |= fresh
                masks.append(fresh)
                steps += (step, step.body)
            else:
                masks.append(step.reached)
        elif isinstance(step, Agent):
            src, dst = model.agent_edges(step.player)
            masks.append(_sources(src, dst, masks.pop()))
        elif isinstance(step, AgentConv):
            src, dst = model.agent_edges(step.player)
            masks.append(_sources(dst, src, masks.pop()))
        else:
            raise EvalError(f"not a program: {step!r}")
    return masks[0]


# Mask-stack steps of `pre` that are not programs.
_COPY, _SWAP, _OR = object(), object(), object()


class _StarRound:
    """One round of the least fixpoint Y = target | pre(body, Y): `pre`
    distributes over union, so each round applies the body only to the
    states first reached in the round before (the frontier)."""

    __slots__ = ("body", "reached")

    def __init__(self, body: Program, reached: np.ndarray):
        self.body, self.reached = body, reached


def _sources(src: np.ndarray, dst: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The sources of the edges that end in `target`."""
    out = np.zeros(len(target), dtype=bool)
    out[src[target[dst]]] = True
    return out


def extension(model: IntensionalModel, formula: Formula) -> np.ndarray:
    """The set of states where the formula holds, as a boolean mask.

    The result is cached on the model and read-only; copy before mutating.
    The formula is compiled into a `Plan` on first use and the plan is kept
    on the formula, so evaluating it on further models does not walk it
    again.  Neither step recurses, so formula depth is not bounded by the
    recursion limit.
    """
    try:
        plan = formula._plan
    except AttributeError:
        plan = compile_plan((formula,))
        if isinstance(formula, Formula):
            object.__setattr__(formula, "_plan", plan)
    return run_plan(model, plan)[plan.roots[0]]


class Plan(NamedTuple):
    """The distinct nodes of some formulas in post-order, children left to
    right, one entry per slot: its kind, its node and the slots of its first
    and second child (-1 where there is none).  The entries are stored as
    columns, with no tuple per entry; `roots` holds each formula's slot."""

    kinds: bytearray
    nodes: list
    left: list[int]
    right: list[int]
    roots: list[int]


# Plan entry kinds: how an entry's model-cache key is made.
_LEAF, _NOT, _BINARY, _MODAL = range(4)
_KINDS = {
    **dict.fromkeys((Top, VectorAtom, Winner, UtilEq, Label), _LEAF),
    Not: _NOT,
    **dict.fromkeys((And, Or, Implies, Iff), _BINARY),
    **dict.fromkeys((Box, Diamond), _MODAL),
}
_CHILDREN_DONE = object()


def compile_plan(roots: Iterable[Formula]) -> Plan:
    """One evaluation plan for all the roots, from an explicit stack.

    Nodes are told apart by identity alone, so compiling never calls
    `Node.__hash__` or `__eq__`; an equal but distinct subtree gets entries
    of its own, and the model cache's keys make it share their masks.
    """
    plan = Plan(bytearray(), [], [], [], [])
    slots: dict[int, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node is _CHILDREN_DONE:  # below it: a connective, then its kind
                node, kind = stack.pop(), stack.pop()
                if kind == _BINARY:
                    a, b = slots[id(node.left)], slots[id(node.right)]
                else:
                    a, b = slots[id(node.body)], -1
            elif id(node) in slots:  # a subtree that occurs more than once
                continue
            else:
                kind = _KINDS.get(type(node))
                if kind is None:  # a subclass, or not a formula at all
                    kind = next((k for t, k in _KINDS.items() if isinstance(node, t)), _LEAF)
                if kind == _BINARY:
                    stack += (kind, node, _CHILDREN_DONE, node.right, node.left)
                    continue
                if kind != _LEAF:
                    stack += (kind, node, _CHILDREN_DONE, node.body)
                    continue
                a = b = -1
            slots[id(node)] = len(plan.nodes)
            plan.kinds.append(kind)
            plan.nodes.append(node)
            plan.left.append(a)
            plan.right.append(b)
        plan.roots.append(slots[id(root)])
    return plan


def run_plan(model: IntensionalModel, plan: Plan) -> list[np.ndarray]:
    """Every entry's read-only mask on the model, slot by slot.

    Masks are cached on the model under keys made from child results: a
    leaf under itself, a connective under (type, id of each child mask), a
    modality under (type, program, id of the body's mask).  The cache keeps
    every mask alive, so equal ids mean equal masks, and a connective's
    value depends on nothing else.  Equal subformulas therefore share one
    mask within and across plans, found by C-level tuple hashing alone.
    """
    cache = model._ext_cache
    masks: list[np.ndarray] = []
    push = masks.append
    for kind, node, a, b in zip(plan.kinds, plan.nodes, plan.left, plan.right):
        if kind == _BINARY:
            sub = masks[a], masks[b]
            key = (type(node), id(sub[0]), id(sub[1]))
        elif kind == _NOT:
            sub = (masks[a],)
            key = (Not, id(sub[0]))
        elif kind == _MODAL:
            sub = (masks[a],)
            key = (type(node), node.program, id(sub[0]))
        else:
            sub = ()
            key = node
        mask = cache.get(key)
        if mask is None:
            mask = cache[key] = _connective(model, node, *sub)
        push(mask)
    return masks


def _connective(model: IntensionalModel, f: Formula, *sub: np.ndarray) -> np.ndarray:
    """The read-only mask of one node, given the masks of its children."""
    if isinstance(f, Top):
        mask = np.ones(model.size, dtype=bool)
    elif isinstance(f, VectorAtom):
        mask = model._vector_atom_mask(f.vector)
    elif isinstance(f, (Winner, UtilEq, Label)):
        mask = model._atom_mask(f)
    elif isinstance(f, Not):
        mask = ~sub[0]
    elif isinstance(f, And):
        mask = sub[0] & sub[1]
    elif isinstance(f, Or):
        mask = sub[0] | sub[1]
    elif isinstance(f, Implies):
        mask = ~sub[0] | sub[1]
    elif isinstance(f, Iff):
        mask = sub[0] == sub[1]
    elif isinstance(f, Diamond):
        mask = pre(model, f.program, sub[0])
    elif isinstance(f, Box):
        mask = ~pre(model, f.program, ~sub[0])
    else:
        raise EvalError(f"not a formula: {f!r}")
    return _frozen(mask)


def satisfies(model: IntensionalModel, where, formula: Formula) -> bool:
    """Truth at one state, given as anything `IntensionalModel.index` takes."""
    return bool(extension(model, formula)[model.index(where)])


def valid_in_model(model: IntensionalModel, formula: Formula) -> bool:
    return bool(extension(model, formula).all())


def counterexample(model: IntensionalModel, formula: Formula) -> str | None:
    """The first state (in enumeration order) falsifying the formula."""
    mask = extension(model, formula)
    bad = np.flatnonzero(~mask)
    if len(bad) == 0:
        return None
    return model.state_key(int(bad[0]))


# --------------------------------------------------------------------------
# epistemic constructions


def _same_class_edges(classes: np.ndarray) -> np.ndarray:
    """Every (i, j) pair of worlds with equal (non-negative) class labels,
    as an (E, 2) array sorted by i, then j; never a pass over all pairs."""
    order = np.argsort(classes, kind="stable")
    counts = np.bincount(classes)
    per_world = counts[classes]
    src = np.repeat(np.arange(classes.size), per_world)
    # The k-th partner of world i is the k-th member of i's class.
    rank = np.arange(src.size) - np.repeat(np.cumsum(per_world) - per_world, per_world)
    first = (np.cumsum(counts) - counts)[classes]
    return np.column_stack((src, order[np.repeat(first, per_world) + rank]))


def epistemic_lift(game: StrategicGame) -> IntensionalModel:
    """All profiles as worlds; each player can tell worlds apart exactly by
    their own coordinate."""
    worlds = _grid_worlds(game.form)
    edges = {player: _same_class_edges(worlds[:, player]) for player in game.form.players}
    return IntensionalModel(game.form, (("G", game.form),), worlds, game.outcomes, edges)


def restrict(form: GameForm, subsets: Mapping[int, Iterable[str]]) -> GameForm:
    """Shrink some players' strategy sets, preserving the ambient order.

    Players absent from `subsets` keep their full strategy set.
    """
    new_sets: list[tuple[str, ...]] = []
    for player in form.players:
        names = form.strategy_sets[player - 1]
        if player not in subsets:
            new_sets.append(names)
            continue
        keep = set(subsets[player])
        unknown = keep - set(names)
        if unknown:
            raise GameError(
                f"player {player} cannot be restricted to unknown "
                f"strategies {sorted(unknown)}"
            )
        if not keep:
            raise GameError(f"player {player} would have no strategies left")
        new_sets.append(tuple(n for n in names if n in keep))
    extra = set(subsets) - set(form.players)
    if extra:
        raise GameError(f"restriction mentions unknown players {sorted(extra)}")
    return GameForm(new_sets)


def confusion_model(
    game: StrategicGame, restricted: GameForm, confused: Iterable[int]
) -> IntensionalModel:
    """Join a restricted copy of the game onto the full one.

    Worlds are all profiles of the restricted form (named ``Gr``) followed by
    all profiles of the full form (named ``G``); every world keeps the
    outcome the full game assigns to its profile.  A confused player cannot
    tell the two forms apart and identifies worlds by their own coordinate
    alone; everyone else additionally distinguishes the forms.
    """
    ambient = game.form
    confused_set = frozenset(confused)
    for player in confused_set:
        ambient._check_player(player)
    inner = [ambient.profile_from_names(restricted.names(s)) for s in all_profiles(restricted)]
    full = _grid_worlds(ambient)
    full[:, 0] = 1
    worlds = np.vstack([[(0, *s) for s in inner], full])
    edges = {}
    for player in ambient.players:
        own = worlds[:, player]
        if player not in confused_set:
            own = worlds[:, 0] * len(ambient.strategy_sets[player - 1]) + own
        edges[player] = _same_class_edges(own)
    # The rows of every profile are included, so the game's value, label and
    # alternative tables stay exact for the joined model.
    table = game.outcomes
    rows = np.concatenate([[game.profile_index(s) for s in inner], np.arange(len(table))])
    outcomes = replace(
        table,
        codes=table.codes[rows],
        label_codes=table.label_codes[rows],
        winners=None if table.winners is None else table.winners[rows],
    )
    return IntensionalModel(ambient, (("Gr", restricted), ("G", ambient)), worlds, outcomes, edges)
